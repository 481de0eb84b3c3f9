"""The benchmark's three workloads: corpus set-up, one request, and the
checks every request's outputs must pass.

Every corpus is built from ``nd.texture`` seeded by the workload seed;
images alternate between a Gaussian blur (sigma 1, 5 taps) and a 7-pixel
motion blur at 30 degrees.  The program receives only the generated
images.  Why each workload exists is written in README.md next to this
file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import nsdeblur as nd
from nsdeblur import cli, deconv, fileio, pipeline, quality

BLURS = (lambda: nd.gaussian_kernel(1.0, 5), lambda: nd.motion_kernel(7, 30.0))

#: Largest allowed distance of the forward kernel's tap sum from 1.
TAP_SUM_TOL = 1e-9


class RequestFailed(Exception):
    """A request ran but its outputs broke a check."""


@dataclass
class Case:
    """One corpus image, with what set-up derived from it."""

    index: int
    clean: np.ndarray
    kernel: np.ndarray          # the true blur
    degraded: np.ndarray
    files: dict = field(default_factory=dict)
    setup: object = None        # iterative-512: the estimated kernel pair
    setup_error: str = ""


@dataclass
class Outcome:
    """What one request produced."""

    arrays: dict                # compared bit for bit between requests
    psf: np.ndarray             # forward kernel estimate
    null_dim: int
    restored: list              # images scored against the clean one


def embed(kernel: np.ndarray, l: int, m: int) -> np.ndarray:
    """Centre a small kernel on an l x m grid (as tests/conftest.embed)."""
    out = np.zeros((l, m))
    ci, ck = l // 2 - kernel.shape[0] // 2, m // 2 - kernel.shape[1] // 2
    out[ci:ci + kernel.shape[0], ck:ck + kernel.shape[1]] = kernel
    return out


def ncc(a: np.ndarray, b: np.ndarray) -> float:
    a, b = a.ravel(), b.ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def psnr_db(image: np.ndarray, clean: np.ndarray) -> float:
    return float(10.0 * np.log10(1.0 / np.mean((image - clean) ** 2)))


class Workload:
    """Base: builds the corpus; subclasses add set-up and the request."""

    #: Layers the workload is designed to spend most of a request in.
    dominant_layers: dict = {}

    def __init__(self, size: int, n_images: int, cfg: pipeline.PipelineConfig,
                 noise: float = 0.0) -> None:
        self.size = size
        self.n_images = n_images
        self.cfg = cfg
        self.noise = noise

    @property
    def megapixels(self) -> float:
        return self.size * self.size / 1e6

    def setup(self, seed: int, work: Path) -> list[Case]:
        cases = []
        for i in range(self.n_images):
            kernel = BLURS[i % 2]()
            clean = nd.texture((self.size, self.size), seed=1000 * seed + i)
            degraded = nd.convolve(clean, kernel)
            if self.noise:
                degraded = nd.add_impulse_noise(degraded, self.noise,
                                                seed=1000 * seed + 500 + i)
            case = Case(i, clean, kernel, degraded)
            self.prepare(case, work)
            cases.append(case)
        return cases

    def prepare(self, case: Case, work: Path) -> None:
        """Per-image set-up beyond the corpus itself."""

    def setup_fingerprint(self, cases: list[Case]) -> bytes:
        return b"".join(c.degraded.tobytes() for c in cases)

    def run(self, case: Case):
        """The timed request; returns what ``outcome`` needs."""
        raise NotImplementedError

    def outcome(self, case: Case, raw) -> Outcome:
        raise NotImplementedError

    def check(self, case: Case, out: Outcome) -> None:
        for key, a in out.arrays.items():
            if not np.all(np.isfinite(a)):
                raise RequestFailed(f"non-finite values in {key}")
        for image in out.restored:
            if image.shape != case.clean.shape:
                raise RequestFailed(f"restored shape {image.shape}")
        if abs(float(out.psf.sum()) - 1.0) > TAP_SUM_TOL:
            raise RequestFailed(f"forward kernel taps sum to {out.psf.sum()!r}")
        if not 1 <= out.null_dim <= self.cfg.psf_l * self.cfg.psf_m:
            raise RequestFailed(f"null dimension K = {out.null_dim}")

    def quality(self, case: Case, out: Outcome) -> tuple[float, float]:
        """(mean PSNR of the restored images, forward-kernel NCC)."""
        psnr = float(np.mean([psnr_db(r, case.clean) for r in out.restored]))
        truth = embed(case.kernel, self.cfg.psf_l, self.cfg.psf_m)
        return psnr, ncc(out.psf, truth)


class BlindCli(Workload):
    """``nsdeblur estimate`` then ``nsdeblur deblur --optimizer none``,
    called in-process through ``cli.main`` on 8-bit PGM files."""

    dominant_layers = {"armodel.estimate_ar": ("armodel.estimate_ar",)}

    def __init__(self, size, n_images, cfg, model_args=()) -> None:
        super().__init__(size, n_images, cfg)
        self.model_args = list(model_args)

    def prepare(self, case, work):
        stem = work / f"img{case.index}"
        case.files = {key: str(stem) + suffix for key, suffix in (
            ("input", ".pgm"), ("psf", "_h.kern"), ("ipsf", "_g.kern"),
            ("report", "_report.txt"), ("output", "_out.pgm"))}
        fileio.write_pgm(case.files["input"], case.degraded)

    def setup_fingerprint(self, cases):
        return b"".join(Path(c.files["input"]).read_bytes() for c in cases)

    def run(self, case):
        f = case.files
        code = cli.main(["estimate", f["input"], "--out-psf", f["psf"],
                         "--out-ipsf", f["ipsf"], "--report", f["report"],
                         *self.model_args])
        if code:
            raise RequestFailed(f"estimate exited {code}")
        code = cli.main(["deblur", f["input"], "--ipsf-file", f["ipsf"],
                         "--output", f["output"], "--optimizer", "none"])
        if code:
            raise RequestFailed(f"deblur exited {code}")

    def outcome(self, case, raw):
        f = case.files
        psf = fileio.read_kernel(f["psf"])
        restored = fileio.read_pgm(f["output"])
        report = Path(f["report"]).read_text(encoding="ascii")
        k = [int(line.split("=")[1]) for line in report.splitlines()
             if line.startswith("null_dim")]
        if len(k) != 1:
            raise RequestFailed("report has no null_dim line")
        return Outcome(arrays={"psf": psf, "ipsf": fileio.read_kernel(f["ipsf"]),
                               "restored": restored,
                               "report": np.frombuffer(report.encode(), np.uint8)},
                       psf=psf, null_dim=k[0], restored=[restored])


class Iterative(Workload):
    """Both image optimizers and the sharpness index on every output; the
    kernel pair of each image is estimated during set-up."""

    dominant_layers = {"deconv.optimizers": ("deconv.bvdr_optimize",
                                             "deconv.cs_optimize")}

    def __init__(self, size, n_images, cfg, ai_cfg) -> None:
        super().__init__(size, n_images, cfg)
        self.ai_cfg = ai_cfg
        self.restore_cfgs = {o: replace(cfg, optimizer=o) for o in ("bvdr", "cs")}

    def prepare(self, case, work):
        # a failed estimate fails every request on this image, not the run
        try:
            case.setup = pipeline.estimate_kernels(case.degraded, self.cfg)
        except Exception as exc:
            case.setup_error = f"set-up estimate failed: {exc!r}"

    def setup_fingerprint(self, cases):
        return b"".join(c.setup_error.encode() if c.setup_error else
                        c.setup.psf.tobytes() + c.setup.ipsf.tobytes()
                        for c in cases)

    def run(self, case):
        if case.setup_error:
            raise RequestFailed(case.setup_error)
        est = case.setup
        out = {o: pipeline.restore(case.degraded, est.ipsf, est.psf, cfg)
               for o, cfg in self.restore_cfgs.items()}
        ai = [quality.anisotropy_index(image, self.ai_cfg)
              for image, _ in out.values()]
        return out, ai

    def outcome(self, case, raw):
        out, ai = raw
        arrays = {"anisotropy": np.array(ai)}
        for name, (image, report) in out.items():
            arrays[name] = image
            arrays[f"{name}_residuals"] = report.residual_trace
            arrays[f"{name}_lambdas"] = report.lambda_trace
        return Outcome(arrays=arrays, psf=case.setup.psf,
                       null_dim=case.setup.basis.null_dim,
                       restored=[image for image, _ in out.values()])


class DenoiseSpace(Workload):
    """Prefilter, space-route kernel pair, one restoring convolution."""

    dominant_layers = {"prefilter_and_space_route": (
        "deconv.denoise_prefilter", "ipsf.ipsf_space",
        "ipsf.optimize_ipsf_space")}

    def run(self, case):
        result = pipeline.estimate_kernels(case.degraded, self.cfg)
        return result, deconv.deconvolve_once(result.prefiltered, result.ipsf)

    def outcome(self, case, raw):
        result, restored = raw
        return Outcome(arrays={"prefiltered": result.prefiltered,
                               "psf": result.psf, "ipsf": result.ipsf,
                               "restored": restored},
                       psf=result.psf, null_dim=result.basis.null_dim,
                       restored=[restored])


def make(name: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks it to 96 x 96 images and small
    models so the whole benchmark runs in seconds."""
    Config = pipeline.PipelineConfig
    if name == "blind-512":
        if smoke:
            return BlindCli(96, 2, Config(ar_p=9, ar_q=9, psf_l=7, psf_m=7),
                            ["--ar-order", "9", "9", "--psf-size", "7", "7"])
        return BlindCli(512, 12, Config())
    if name == "iterative-512":
        if smoke:
            return Iterative(96, 2, Config(ar_p=9, ar_q=9, psf_l=7, psf_m=7),
                             quality.AiConfig(fragment=64))
        return Iterative(512, 6, Config(), quality.AiConfig())
    if name == "denoise-space-256":
        if smoke:
            return DenoiseSpace(96, 2, Config(
                ar_p=9, ar_q=9, psf_l=7, psf_m=7, denoise=True,
                denoise_order=13, denoise_size=7, ipsf_route="space"), 0.02)
        return DenoiseSpace(256, 4, Config(denoise=True, ipsf_route="space"),
                            0.02)
    raise ValueError(f"unknown workload {name!r}")
