"""The criterion-2 config, README's example, written once: every other
config of the tests derives from it, by ``override`` or by dropping a key."""

from invlearn.experiment import override

# scalar Gaussian Tikhonov: criterion 2's rate experiment
CRITERION_2 = {
    "problem": {
        "forward": {"n_x": 1, "n_y": 1, "singular_values": [1.0],
                    "basis": "identity"},
        "prior": {"type": "gaussian", "mean": [0.0], "cov_eigenvalues": [1.0]},
        "noise": {"type": "gaussian", "mean": [0.0], "cov_eigenvalues": [1.0]},
    },
    "family": {"kind": "tikhonov", "structure": "scale"},
    "param_class": {"kind": "euclidean_ball", "dim": 1, "radius": 1.0},
    "m_grid": [16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
    "trials_per_m": 50,
    "proxy_m": 409_600,
    "n_mc": 100_000,
    "master_seed": 1,
}

# the same problem as a rate run of seconds: m-grid 16..128, 10 trials per m
SMALL = override(CRITERION_2, {"m_grid": [16, 32, 64, 128],
                               "trials_per_m": 10, "proxy_m": 12_800,
                               "n_mc": 2_000})
