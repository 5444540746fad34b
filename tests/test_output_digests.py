"""Pinned sha256 digests of small seeded outputs.

Any change to an output bit (a reordered sum, a re-drawn stream, a different
number format) fails here, so a refactor that promises identical results has
to keep them; a change that means to alter results updates the digests and
says so.  The farms run twice: once at the fixed chunk budget, where these
sizes fit in one chunk, and once with the budget cut so that each farm splits
into several chunks; the one-chunk farms run again with the block size cut,
so that blocks of whole replicates split every dense chunk.  The kernel, drift-operator, solver and quadrature cases
pin the layers the default CLI config never reaches: the Dirichlet kernel,
the bounded-domain functionals, the subordinated fractional kernel, glue,
the alpha > 1 drift and the truncated (compensated over (cutoff, K]) paths.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json

import numpy as np
import pytest

from levyfield import noise
from levyfield.boxes import Box, SpaceTimeBox
from levyfield.cli import main
from levyfield.integrate import (
    IntegralPath,
    PredictableField,
    SimpleProcess,
    field_quadrature,
    integrate_field,
    integrate_simple,
)
from levyfield.kernels import (
    KernelKind,
    KernelSpec,
    eval_kernel,
    i_alpha,
    j_p,
    space_shift_modulus,
    subordinator_density,
    time_shift_modulus,
)
from levyfield.noise import (
    NoiseConfig,
    first_large_jump_time,
    noise_of_box,
    sample_large_jump_flags,
    sample_noise_values,
    sample_weighted_sums,
    simulate_jumps,
    truncate,
)
from levyfield.solver import (
    SolverConfig,
    _PicardWorkspace,
    glue,
    picard_solve,
    picard_solve_drifted,
    sigma_affine,
    solve_linear,
)
from levyfield.stable import LevyMeasure
from levyfield.verify import ecf

UNIT = Box.interval(0.0, 1.0)

CLI_DIGESTS = {
    ("noise", "jumps.csv"): "38d879b86e8de7bfd54972b5d5d4e6b28177e1fccda520c9b8cc4242a2859d50",
    ("noise", "noise_values.csv"): "88b1855ba2ee6a9a8de7138dd3e75fd706b65e8306e98436384ed59bd418d372",
    ("kernels", "kernel_values.csv"): "02fb70781f9e57a732b23f5d88b03c50592e358371bdf8e0e0210da4f0ecace0",
    ("kernels", "kernel_functionals.csv"): "182e6e5c50073d23468696dd0aaa5a6f7f9bb392703fc8bb629142b4b33df696",
    ("solve", "solution.csv"): "7af93992dd684d34d884b7cd27872950193dbb656fecf8993ca1c7d32047c65f",
    ("solve", "diagnostics.json"): "d00241f9ff622d397e928af663c711651b2753902143ee17e8f04fda299e5325",
    ("linear", "linear_solution.csv"): "c345a1ff6c5e967b6a31722a59caddd44301610224a94751ad3b7f7454160ad7",
}

FARM_DIGESTS = {
    "noise": "a4240379ef7922e86c1c48a92cf488d378e4952aa5e58661c5e228126a6cc18d",
    "weighted": "ae515857e3b598630ce89ee058cc2fd864f4f57981d14311b50d5e2bc1b47876",
    "flags": "01f4c778cc1a6c0f27dac23dc8289f98830632ae101af05d35e5a9053aba22de",
    "noise_chunked": "a3cae5fa452b3a33caf8f8147ce5c29511244d246fef362cd1a4d1c465c704fc",
    "weighted_chunked": "cf5d8df979b8427c782ef550cfdf9f2deffc61842dbe7f7f8d4b5a0082c96fa2",
    "flags_chunked": "236b232fb94678b33f7cfe5d9b11edf49949b02c5a5820277d2c7b6f65a12a55",
    "noise_truncated.0.5": "3aaceaf1ee3a214db26cf6676d4f64eb63bd630b535d78baafa599bebbfbaf0a",
    "noise_truncated.1.5": "400a46a174d361ffe1bf5367ff5d9bacb6e9d40d923d9199f983682cea066dfc",
    "weighted_truncated_2d": "b697d7f19bc5d2d7f615b1beae5961c23ad92cd4e10549006afbd9708cb2b96e",
    "noise_sparse": "ffb7d141762c020259d2850237c81490090fa3a795102e8c63c3b8d7b598c99a",
    "flags_dense": "505ea7d32f2ba6246e5002cd4f921e24278a7a44ddbe91d16a0c7efd90d5cc75",
    "noise_dense_truncated": "6b1deae33a513f8a5aeac3761178b6e6b8f73a370812fca283ef79ce29536327",
}

ECF_DIGEST = "ac4a16c5276ef7ac9a43e5d55aa9e4c4a6440a47273ae9812d9845beed2a36ba"

PATH_DIGEST = "0de4bc8e4abc54cba5dcf3159b092a564dc0f29f72cf12b933d8f4b21c37d1ac"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def cone_weight(times, locs):
    return 0.5 * (np.abs(locs[:, 0]) < 2.0 - times)


CONE_WINDOW = NoiseConfig(LevyMeasure.from_beta(0.5, 0.3), 2.0, Box.interval(-2.0, 2.0), cutoff=1e-2)


@pytest.mark.parametrize("command", ["noise", "kernels", "solve", "linear"])
def test_cli_files_on_default_config(tmp_path, command):
    argv = ["--out", str(tmp_path), command]
    if command == "noise":
        argv = ["--replicates", "50"] + argv
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    for (cmd, name), digest in CLI_DIGESTS.items():
        if cmd == command:
            assert sha256((tmp_path / name).read_bytes()) == digest, name


# canonical `verify` reports (wall time dropped) through the CLI; the local
# suite keeps its default 200 realizations, because 20,000 at alpha = 1.5 cost
# some 30 times more than all the other cases together
VERIFY_REPLICATES = "[verify]\nreplicates = 20000\n"
ALPHA15 = "[noise]\nalpha = 1.5\nbeta = 0.3\n[solver]\np = 1.9\n"
SUITE_CASES = {
    "ecf.0.5": ("ecf", VERIFY_REPLICATES, [], 0),
    "tail.0.5": ("tail", VERIFY_REPLICATES, [], 0),
    "moment.0.5": ("moment", VERIFY_REPLICATES, [], 0),
    "survival.0.5": ("survival", VERIFY_REPLICATES, [], 0),
    "local.0.5": ("local", "", [], 0),
    "tail.1.5": ("tail", VERIFY_REPLICATES + ALPHA15, [], 0),
    "moment.1.5": ("moment", VERIFY_REPLICATES + ALPHA15, [], 0),
    "survival.1.5": ("survival", VERIFY_REPLICATES + ALPHA15, [], 0),
    "local.1.5": ("local", ALPHA15, [], 0),
    "ecf.0.5.control": ("ecf", VERIFY_REPLICATES, ["--negative-control"], 1),
    "tail.0.5.control": ("tail", VERIFY_REPLICATES, ["--negative-control"], 1),
    "moment.0.5.control": ("moment", VERIFY_REPLICATES, ["--negative-control"], 1),
    "survival.0.5.control": ("survival", VERIFY_REPLICATES, ["--negative-control"], 1),
    "local.0.5.control": ("local", "", ["--negative-control"], 1),
    "tail.1.5.control": ("tail", VERIFY_REPLICATES + ALPHA15, ["--negative-control"], 1),
    "moment.1.5.control": ("moment", VERIFY_REPLICATES + ALPHA15, ["--negative-control"], 1),
    "survival.1.5.control": ("survival", VERIFY_REPLICATES + ALPHA15, ["--negative-control"], 1),
    "local.1.5.control": ("local", ALPHA15, ["--negative-control"], 1),
}

SUITE_DIGESTS = {
    "ecf.0.5": "b0dfe1538c691f56c82639d8026c28fdba96f5f7de9420610441d1e2595a843a",
    "ecf.0.5.control": "79b6f439e3807215a37dd92943b8db224dbf3ea7039c6ca44d280e90ee51525f",
    "local.0.5": "08064dd913763819cb3e4ba865975a440cba24f49d0eb2c4c6b4bf446bcacce4",
    "local.0.5.control": "c17502e0b9b6015d2b586d61a9fe160e99b17371456edbb5cf37f4d98e4862c7",
    "local.1.5": "fe8b6c72ae17712a103370ebea7297ec84086054c7864b58a0f3d9916025b9ec",
    "local.1.5.control": "8704bdeaec993d05fa4236e11b6dd9db4d25a6c4d3436bc4fc0490c3feed59a6",
    "moment.0.5": "4c9a869745a779c39c199f9e9713fea321cdf9fd10e3ce4d934a674fd22d3167",
    "moment.0.5.control": "2cde1df6cb8fac9a9bf18d9cd45d792beac1039b1b23f13bf6f274b0fdb4a0fc",
    "moment.1.5": "7f1fbae47c23be29f490c428d2bdedc88fb9ae08579b01f402e880d7e916348c",
    "moment.1.5.control": "b53642aafaa8aca4e6aec4340ce7a3d74d7386c9b166fcb18aa4c77800d2a76b",
    "survival.0.5": "2761d6ab65c64d4039d39ff14234f86a3812801292f60128acd39b84ba01159f",
    "survival.0.5.control": "1c38ffcd9763759124767f784d881ad9c653304eaba4f713e90c6751cabd2dcc",
    "survival.1.5": "97e941f9878e66b9f2e3177920cfc4f35f274abd6353a520dfdc157572a34752",
    "survival.1.5.control": "a733038cb1571b0f582e3d6ad2c3cfe357204120445f5c4bf7f1eb7b2dab5765",
    "tail.0.5": "bfdb105323b081fc44a525cd4f1e08bf8b87f6c84be342435c463c47fa309d62",
    "tail.0.5.control": "2cd0004a6d2262199a8096c4d1e4c5be115878de5fffe5ad79e0012a38a2a01f",
    "tail.1.5": "f39c342d26b31f44cd47c8bcd839e08c6093ef3f83e613e69858d158ea830958",
    "tail.1.5.control": "2677b4ee114218cd7dae45c572506ad48e1be17b6d73d785578d09ad97c1a976",
}


@pytest.mark.parametrize("case", sorted(SUITE_CASES))
def test_verify_reports(tmp_path, case):
    suite, config_text, extra, code = SUITE_CASES[case]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config_text, encoding="utf-8")
    argv = ["--config", str(cfg_file), "--out", str(tmp_path / "out"), "verify", suite] + extra
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == code
    payload = json.loads((tmp_path / "out" / f"report_{suite}.json").read_text(encoding="utf-8"))
    payload.pop("wall_time_s")
    assert sha256(json.dumps(payload, sort_keys=True).encode()) == SUITE_DIGESTS[case]


class TestFarms:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_noise_values(self, workers):
        dense = LevyMeasure.from_beta(1.5, 0.5)
        values = sample_noise_values(dense, 1.0, 0.01, 3000, np.random.default_rng(7), workers=workers)
        assert sha256(values.tobytes()) == FARM_DIGESTS["noise"]

    def test_weighted_sums(self):
        values = sample_weighted_sums(CONE_WINDOW, cone_weight, 2000, np.random.default_rng(8))
        assert sha256(values.tobytes()) == FARM_DIGESTS["weighted"]

    def test_large_jump_flags(self):
        flags = sample_large_jump_flags(LevyMeasure.from_beta(0.7, 0.0), 1.0, 0.5, 2.0, 5000, np.random.default_rng(9))
        assert sha256(flags.tobytes()) == FARM_DIGESTS["flags"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_truncated_noise_values(self, alpha, workers):
        m = LevyMeasure.from_beta(alpha, 0.5)
        rng = np.random.default_rng(14)
        values = sample_noise_values(m, 1.0, 0.01, 3000, rng, truncation=1.0, workers=workers)
        assert sha256(values.tobytes() + floats(rng.random())) == FARM_DIGESTS[f"noise_truncated.{alpha}"]

    def test_truncated_weighted_sums_two_dim(self):
        window = NoiseConfig(LevyMeasure.from_beta(1.5, 0.5), 1.0, Box((0.0, 0.0), (1.0, 1.0)), cutoff=0.05)
        rng = np.random.default_rng(15)

        def weight(times, locs):
            return 1.0 + times * locs[:, 0] - locs[:, 1]

        values = sample_weighted_sums(window, weight, 2000, rng, truncation=1.0, weight_integral=0.75)
        assert sha256(values.tobytes() + floats(rng.random())) == FARM_DIGESTS["weighted_truncated_2d"]

    def test_sparse_noise_values(self):
        # about 1.6 jumps per replicate: many replicates draw none
        rng = np.random.default_rng(16)
        values = sample_noise_values(LevyMeasure.from_beta(0.7, 0.3), 1.0, 0.5, 3000, rng, truncation=2.0)
        assert sha256(values.tobytes() + floats(rng.random())) == FARM_DIGESTS["noise_sparse"]

    def test_dense_large_jump_flags(self):
        # about 25 jumps per replicate, none without a jump
        rng = np.random.default_rng(17)
        flags = sample_large_jump_flags(LevyMeasure.from_beta(0.7, 0.0), 5.0, 0.1, 2.0, 3000, rng)
        assert sha256(flags.tobytes() + floats(rng.random())) == FARM_DIGESTS["flags_dense"]


class TestBlockedFarms(TestFarms):
    """The farms above reduced in blocks of at most 700 draws.

    Blocks split every chunk of the dense farms, and replicates of the
    alpha = 1.5, cutoff 0.01 farm (about 750 positive jumps) exceed a block.
    The digests are those of the default block size.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(noise, "BLOCK_DRAWS", 700)


def test_dense_truncated_noise_values_two_workers():
    # 2.2e7 draws in two chunks, each reduced in blocks of the default size
    rng = np.random.default_rng(18)
    values = sample_noise_values(LevyMeasure.from_beta(1.5, 0.5), 1.0, 1e-3, 700, rng, truncation=1.0, workers=2)
    assert sha256(values.tobytes() + floats(rng.random())) == FARM_DIGESTS["noise_dense_truncated"]


def test_ecf_two_chunks():
    # 4e5 samples: two 200,000-sample chunks
    samples = np.random.default_rng(19).standard_cauchy(400_000)
    assert sha256(ecf(samples).tobytes()) == ECF_DIGEST


class TestChunkedFarms:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # 20,000 draws per chunk: 5, 4 and 26 chunks for the farms below
        monkeypatch.setattr(noise, "MAX_CHUNK_DRAWS", 20_000)

    def test_noise_values_across_workers(self):
        m = LevyMeasure.from_beta(1.5, 0.5)
        w1 = sample_noise_values(m, 1.0, 0.05, 1000, np.random.default_rng(11), workers=1)
        w2 = sample_noise_values(m, 1.0, 0.05, 1000, np.random.default_rng(11), workers=2)
        assert np.array_equal(w1, w2)
        assert sha256(w1.tobytes()) == FARM_DIGESTS["noise_chunked"]
        assert sha256(w2.tobytes()) == FARM_DIGESTS["noise_chunked"]

    def test_weighted_sums(self):
        values = sample_weighted_sums(CONE_WINDOW, cone_weight, 1000, np.random.default_rng(12))
        assert sha256(values.tobytes()) == FARM_DIGESTS["weighted_chunked"]

    def test_large_jump_flags(self):
        m = LevyMeasure.from_beta(0.7, 0.0)
        flags = sample_large_jump_flags(m, 50.0, 0.1, 2.0, 2000, np.random.default_rng(13))
        assert sha256(flags.tobytes()) == FARM_DIGESTS["flags_chunked"]


def test_integral_path_csv(tmp_path):
    config = NoiseConfig(LevyMeasure.from_beta(1.5, 0.5), 1.0, UNIT, cutoff=0.5)
    jumps = simulate_jumps(config, np.random.default_rng(21))
    path = IntegralPath.compute(lambda t, x: 1.0 + t * x, jumps, UNIT, config, 1.0, truncation=2.0, n_nodes=4)
    out = tmp_path / "path.csv"
    path.save_csv(out, header_comment="path")
    assert sha256(out.read_bytes()) == PATH_DIGEST


# ---------------------------------------------------------------------------
# Kernels, drift operator, compensated solves and quadratures
# ---------------------------------------------------------------------------

DIRICHLET = KernelSpec(KernelKind.HEAT_DIRICHLET_INTERVAL)
WAVE_UNIT = KernelSpec(KernelKind.WAVE_1D, domain=UNIT)
HEAT_FREE = KernelSpec(KernelKind.HEAT_FREE)
CABLE = KernelSpec(KernelKind.CABLE)

LAYER_DIGESTS = {
    "Q.dirichlet": "4acd9a3dcff0b6ab2cb76fd0396827025fea102e3ff25d8a0a97d2712a0bee80",
    "Q.wave": "364f448a9cbdfed56be6e1b1e373eed37cea9d5ef2299f3740f891b3dd429456",
    "Q.heat_free": "241dd7125f2ac858a102de1f612e85ea903be22e3320cafd96a87bdb331ecf41",
    "Q.cable": "b9cb38371e4e168cdc073ff8446c8ce81721c83a5569977c99092601a0a2b618",
    # on a quiet realization the full and drifted solves agree to the bit
    "full": "7fc16687d9cab9669bcdba8baac1a57d741dcf49d8059002617f1cbfe0731f91",
    "drifted": "7fc16687d9cab9669bcdba8baac1a57d741dcf49d8059002617f1cbfe0731f91",
    "functionals.dirichlet": "2b7521fc66541c8e03a9af19e66b051a6bba3fb1829d45ff8e81326aac02ce8b",
    "functionals.wave": "65c7ec3d1ae3a2db5650d90bbb80c91e2109546fdd3536c1c0d030e54c24af06",
    "moduli": "6b79fc7aa60e8aff0b3690ad3f9c39cf5d294a7bc2d4cebe4ca878c518b2c77d",
    "integrals": "1922df144f83a83c6ce8b16603fc936ad2578dba2ed5707a0583780099b55b9d",
    "quadrature_2d": "465888710868a8038e9f87a923f013cb8bd2358ac05b0c1b8ac261af2d5c0604",
    "density.0.3": "6d7e8e92a1b20074d122a725a3d779b48d133d1ee3e11ff1ec165eaa8f2ed4e7",
    "density.0.7": "1c52eed4205f218d1209cce7856b22fe15a81972e60c4620b353dd8431ac698d",
    "subordinated": "8c129a097dc00f2c5882809de3e52655e96d97e7f286674810e52325156b690c",
    "eval.0.7": "815f2cc5cbc76246584ab0f330f056d345fc3d14249645ea5ebfa45b8ce1a259",
    "eval.0.5": "bffd5d3297f49bd79489f1adbbbdf6c4f1edf7f4a6d5d3b55f918263b31e7e18",
    "functionals.fractional": "0ace7f112a23417056dfef75fd0c9a98b7e72c8ffd02750e1e2d7cd03e26f499",
    "glue": "f3a1f33ead3babee6cc40a0c25aae9bacb8472489e97b2fc7fd8520dfb647112",
    "box_values_truncated": "ab0fbeff5e4527d85e08b00bb72d971675c2802e44b08b0022c0c79d4510eee7",
    "simple_integrals_truncated": "31af6e621c68686fa426301615c8e4db171417e9dd2eca4e35cc137efd08d338",
    "linear": "58a5f7e736a8e08a684eb4892f642656c9138e4d025bb6196081bfc1175c906a",
}


@functools.lru_cache(maxsize=None)
def quiet_case(label):
    """Config and a quiet alpha = 1.5 realization (no jump above 1 in the window)."""
    kernel, cutoff, n, seed = {
        "dirichlet": (DIRICHLET, 0.1, 5, 31),
        "wave": (WAVE_UNIT, 0.02, 9, 32),
        # the Dirichlet realization under the free-space kernels
        "heat_free": (HEAT_FREE, 0.1, 5, 31),
        "cable": (CABLE, 0.1, 5, 31),
    }[label]
    noise = NoiseConfig(LevyMeasure.from_beta(1.5, 1.0), 1.0, UNIT, cutoff=cutoff)
    config = SolverConfig(kernel=kernel, noise=noise, truncation=1.0, p=1.9, n_t=n, n_x=n)
    rng = np.random.default_rng(seed)
    while True:
        jumps = simulate_jumps(noise, rng)
        if first_large_jump_time(jumps, UNIT, 1.0) > 1.0:
            return config, jumps


def floats(*values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("label", ["dirichlet", "wave", "heat_free", "cable"])
def test_drift_operator(label):
    config, jumps = quiet_case(label)
    Q = _PicardWorkspace(config, truncate(jumps, 1.0)).build_drift_operator()
    assert sha256(Q.tobytes()) == LAYER_DIGESTS[f"Q.{label}"]


def test_full_and_drifted_solves():
    config, jumps = quiet_case("dirichlet")
    sigma = sigma_affine(0.2, 1.0)
    full = picard_solve(dataclasses.replace(config, truncation=None), sigma, jumps)
    drifted = picard_solve_drifted(config, sigma, jumps)
    assert sha256(full.eval_vector().tobytes()) == LAYER_DIGESTS["full"]
    assert sha256(drifted.eval_vector().tobytes()) == LAYER_DIGESTS["drifted"]


@pytest.mark.parametrize("label, spec", [("dirichlet", DIRICHLET), ("wave", WAVE_UNIT)])
def test_bounded_domain_functionals(label, spec):
    values = [i_alpha(spec, 1.0, a) for a in (0.5, 1.2)] + [j_p(spec, t, p) for t in (0.25, 1.0, 2.0) for p in (0.75, 1.5)]
    assert sha256(floats(*values)) == LAYER_DIGESTS[f"functionals.{label}"]


def test_shift_moduli():
    values = [fn(DIRICHLET, 1.0, 0.75, h, 0.4) for fn in (time_shift_modulus, space_shift_modulus) for h in (0.1, 0.05)]
    values.append(time_shift_modulus(WAVE_UNIT, 1.0, 0.75, 0.05, 0.6))
    assert sha256(floats(*values)) == LAYER_DIGESTS["moduli"]


def test_compensated_integrals():
    config, jumps = quiet_case("wave")
    fields = (
        PredictableField(lambda s, y, hist: (1.0 + s) * (1.0 + y), "polynomial"),
        PredictableField(lambda s, y, hist: 1.0 + hist.sum_sizes(), "history"),
    )
    values = [integrate_field(f, jumps, 1.0, UNIT, config.noise, n_nodes=8) for f in fields]
    assert sha256(floats(*values)) == LAYER_DIGESTS["integrals"]


def test_field_quadrature_two_dim():
    square = Box((0.0, -1.0), (1.0, 1.0))
    noise = NoiseConfig(LevyMeasure.from_beta(1.5, 0.0), 1.0, square, cutoff=0.5)
    jumps = simulate_jumps(noise, np.random.default_rng(33))
    field = PredictableField(lambda s, x, hist: (1.0 + s * x[0]) * (2.0 - x[1]) + hist.sum_sizes(), "plane")
    values = [field_quadrature(field, jumps, 1.0, square, n_nodes=4, time_breaks=[0.3], power=p) for p in (None, 1.5)]
    assert jumps.n > 0
    assert sha256(floats(*values)) == LAYER_DIGESTS["quadrature_2d"]


# s <= 0, the integral branch (0 < s < 10) and the series (s >= 10)
DENSITY_S = (-1.0, 0.0, 0.01, 0.3, 1.0, 5.0, 9.99, 10.0, 50.0)


def fractional(gamma):
    return KernelSpec(KernelKind.FRACTIONAL_HEAT, gamma=gamma)


@pytest.mark.parametrize("gamma", [0.3, 0.7])
def test_subordinator_density(gamma):
    values = [subordinator_density(gamma, s) for s in DENSITY_S]
    assert sha256(floats(*values)) == LAYER_DIGESTS[f"density.{gamma}"]


def test_fractional_kernel_value():
    assert sha256(floats(eval_kernel(fractional(0.7), 0.5, 0.3, 0.1))) == LAYER_DIGESTS["subordinated"]


@pytest.mark.parametrize("gamma, n", [(0.7, 4), (0.5, 16)])
def test_fractional_eval_kernel(gamma, n):
    rng = np.random.default_rng(34)
    t, x, y = rng.uniform(0.25, 2.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(-0.5, 0.5, n)
    values = eval_kernel(fractional(gamma), t, x, y)
    assert sha256(values.tobytes()) == LAYER_DIGESTS[f"eval.{gamma}"]


def test_fractional_functionals():
    values = [j_p(fractional(0.7), 1.0, 2.0), i_alpha(fractional(0.5), 1.0, 0.8)]
    assert sha256(floats(*values)) == LAYER_DIGESTS["functionals.fractional"]


def test_glue_dirichlet():
    noise_config = NoiseConfig(LevyMeasure.from_beta(0.5, 0.0), 1.0, UNIT, cutoff=1e-3)
    config = SolverConfig(kernel=DIRICHLET, noise=noise_config, truncation=1.0, p=0.75, n_t=9, n_x=9)
    jumps = simulate_jumps(noise_config, np.random.default_rng(35))
    result = glue(config, sigma_affine(1.0, 1.0), jumps, [1.0, 4.0])
    assert result.resolved
    payload = floats(result.k_used) + result.field.eval_vector().tobytes()
    assert sha256(payload) == LAYER_DIGESTS["glue"]


def truncated_case():
    config = NoiseConfig(LevyMeasure.from_beta(1.5, 0.5), 1.0, UNIT, cutoff=0.05)
    jumps = simulate_jumps(config, np.random.default_rng(40))
    # both levels below remove a jump
    assert np.abs(jumps.sizes).max() > 4.0
    return config, jumps


def test_truncated_box_values():
    config, jumps = truncated_case()
    boxes = [SpaceTimeBox(0.0, 1.0, UNIT), SpaceTimeBox(0.2, 0.7, Box.interval(0.1, 0.6))]
    values = [noise_of_box(jumps, box, config, level=level) for box in boxes for level in (None, 1.0, 4.0)]
    assert sha256(floats(*values)) == LAYER_DIGESTS["box_values_truncated"]


def test_truncated_simple_integrals():
    config, jumps = truncated_case()
    halves = [Box.interval(0.0, 0.5), Box.interval(0.5, 1.0)]
    process = SimpleProcess([0.0, 0.4, 1.0], [[(halves[0], 2.0), (halves[1], -1.0)], [(UNIT, 0.5)]])
    values = [integrate_simple(process, jumps, t, UNIT, config, truncation=k) for t in (0.7, 1.0) for k in (1.0, 4.0)]
    assert sha256(floats(*values)) == LAYER_DIGESTS["simple_integrals_truncated"]


def test_solve_linear_compensated():
    config, jumps = quiet_case("dirichlet")
    solution = solve_linear(DIRICHLET, jumps, config)
    assert sha256(solution.eval_vector().tobytes()) == LAYER_DIGESTS["linear"]
