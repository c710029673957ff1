"""Golden fingerprints: the sha256 of every output file of small r2d2
runs, recorded before training moved to per-stage workspaces and one
pseudo-logit step per epoch, and of a diagnose run on a pool of more
than two CSV row blocks, recorded before CSV text was written and
parsed in blocks. Changes that claim to keep every output
byte-identical must keep these. The bits depend on numpy's and the
BLAS's kernels, so the test skips on other versions than the recorded
ones.
"""

import hashlib
import platform

import numpy as np
import pytest

from d2ssl import model, numerics, pseudo
from d2ssl.cli import EXIT_OK, build_dataset, main, parse_config

RECORDED_ON = {"numpy": "2.4.6", "blas": ("scipy-openblas", "0.3.31.188.0"),
               "machine": "x86_64"}

BASE = {
    "gauss_per_class": "60",
    "stage1_epochs": "4", "stage1_horizon": "4",
    "stage2_epochs": "3,3", "stage2_lrs": "0.01,0.008", "stage2_repredict": "0,1",
    "stage3_epochs": "3", "stage3_horizon": "3",
    "batch_labeled": "5", "batch_unlabeled": "20",
}

CONFIGS = {
    "tanh_forward_kl": {},
    "relu_reverse_kl_deep": {"activation": "relu", "classification_loss": "reverse_kl",
                             "layer_sizes": "2,16,8,3,4", "labeled_full_loss": "false"},
    "linear_squared_l2_no_hidden": {"activation": "linear", "classification_loss": "squared_l2",
                                    "layer_sizes": "2,4", "weight_decay": "0"},
    "open_world": {"open_world": "true", "ood_count": "40", "discard_fraction": "0.2",
                   "seed": "11"},
    "nine_classes": {"gauss_classes": "9", "layer_sizes": "2,32,3,9",
                     "classification_loss": "reverse_kl", "batch_labeled": "3",
                     "batch_unlabeled": "17", "gauss_per_class": "30"},
}

GOLDEN = {
    "tanh_forward_kl": {
        "metrics.csv": "07d672732ed5ad5fe04f18338f3a5d911d053e17677013199212ee7fa8ed9ef5",
        "model.d2ck": "dc3490bb4e54996160ff2744393a868a3819521b14682c2aa472b506d033e8b3",
        "pseudo.d2pl": "aa50a2f6b7f710c3d5a696000c0710d7253bf260777f3cb2505469153eec532f",
        "dataset.csv": "90d0be8c244794a3ba0fdacb712c9bc7816a62094e0a68f7acde47d71d0ca655",
        "t_histogram.csv": "e1515e498c0256217c2b15519a5e62934784f01839e5c69146a4dcd1b35f9c5d",
        "flatness_audit.csv": "968054cfd9f122a14ae2b6d52eeeb275545164cd0ee0207b0865e5dd9bd42a7f",
        "flatness_summary.csv": "cc26e17b4e52373319d710f2766bc737b0f2411956fe404f1fc17d79f7af3192",
        "entropy_cdf.csv": "516397283defe32c02702eba81006ce4437449d2904be56a8b371b70e680f7c6",
        "features.csv": "65091225490ee58420bbd015920d79ed58545da69ef27af63eb7362a3f84b2aa",
        "t_converged_fraction.csv": "c34c594276d9787994e56cd0c2489e5acf7d55b067df4747b44d832e1cf9f6ab",
    },
    "relu_reverse_kl_deep": {
        "metrics.csv": "6248f0445d60b0a8ba5b3c82c0b1fa8c9661b5edd6fe339531f38ad0f9609d36",
        "model.d2ck": "082fee0fd49de704ea7e47151aaa0fc3ab5db6f4909129606bb683092806818d",
        "pseudo.d2pl": "68a5895e68010b18c50de8bfb2e1332c4c3624e8045237642f554ad2df726d6c",
        "dataset.csv": "90d0be8c244794a3ba0fdacb712c9bc7816a62094e0a68f7acde47d71d0ca655",
        "t_histogram.csv": "06ad365d868c72df3b2c739f08c56057e589f1eb4196ac299187726f1b9f29f4",
        "flatness_audit.csv": "28a5e4ba0dc0d1bb7f4dc40b1b7c181e2a0e629df202515490193a82eae2b6bc",
        "flatness_summary.csv": "5b5f2359b36fc688fab9d2787bddbb2872dd40d896736c59f6b1085cf441b2a2",
        "entropy_cdf.csv": "2f945f18ee23c74588d416011f83176edce6e356a76937749376beaa1db9d829",
        "features.csv": "fe84b4211f0bfa2771351898d3793e1e4ed0eda26f8e0ae2a5b64953d8e72028",
        "t_converged_fraction.csv": "ced560bbc75a0aefd4805b02562a11e8b2552f439c8143519336842488b37e0c",
    },
    "linear_squared_l2_no_hidden": {
        "metrics.csv": "b4936e8b79fa6302c922fb2b0a629b6509637091200855919317e47f5a5d587c",
        "model.d2ck": "b6b0beafc28ea2dbd16c7563a243a7aa42e2ed24a089899d296fe3f97c16c891",
        "pseudo.d2pl": "cc409f084fc3b4cc2d2ed723fd12cf2d32c6e2886e28c532def18af2737a4c43",
        "dataset.csv": "90d0be8c244794a3ba0fdacb712c9bc7816a62094e0a68f7acde47d71d0ca655",
        "t_histogram.csv": "34619ca30122dccb2ff7784179d474bab621d24a3c20132065759005979b1ed7",
        "flatness_audit.csv": "0ef339a69b2dac784c8116d26f9e36bffcadaaa467d16d99072390a290f923f1",
        "flatness_summary.csv": "c27b0ff233b35419fa84c0ba3a80bbde42585f2d45e63fd09abd688c7248ea06",
        "entropy_cdf.csv": "4a85c263141f8560dd3956db766b1ea2a2435251d410a0be0baec637677cfd3b",
        "features.csv": "4d466c9e9e3cd39f0b27b08621a955c372c3b4f0739b73395ca5662096a2349c",
        "t_converged_fraction.csv": "67771f3c90c577509071efcca5b433a6ab80b2db3237f6e2821c2878924e8b3f",
    },
    "open_world": {
        "metrics.csv": "78f54fe8ad390659ff92c88fe86f5b76d483fa4ff50a369d32f47fc2025b7407",
        "model.d2ck": "af4b923bfbfa69acba5b03f235a904841e5b0169b8b6c4ec0416bdb217f008c0",
        "pseudo.d2pl": "7f0d016dbbd312a73c26ab74762a342f84f2d30b936856b4e7dc0a129dbe26fb",
        "dataset.csv": "bdd7de64115cae39d465da0858f7db2801959277e815e9f7d24474d1f24fb9ff",
        "t_histogram.csv": "f707f20e8689a31d3eb85141d2253c2d39ffdad4b254a6f2e8320b3ee02cb299",
        "flatness_audit.csv": "91327c033de9ba883b42084f7d2c3d9c200f251114368987d86eb83974548c15",
        "flatness_summary.csv": "81122c36d57df8131f7014586ecc2bdabdd374f256a1140d993d09fb01916cbf",
        "entropy_cdf.csv": "181ae945b70bb1b08c758ea8b87521fa8af5bb9e8a7fa283dadbb92404c6a2b0",
        "features.csv": "cfd9e7399b9422a6616f6b4dbd190720f1b21a4831d33d1cd09c0029e83927d2",
        "t_converged_fraction.csv": "3b78c28aa8a4bb6b9b8ff8f5e589ff71a33f1ec10252eca359eef19dc0e9160a",
    },
    "nine_classes": {
        "metrics.csv": "0b10952955b7e51964e9f637d009ad94afacd5554a9c7686cecbd067309a62d0",
        "model.d2ck": "f6648a116797fed48ce48165c9b65ebed50efc8c3df152ccdd85ba4142c7632c",
        "pseudo.d2pl": "fb7fb54419ecaab37ad92c874bf9e3f3df15900e05b0dbd79e332ca83675fca6",
        "dataset.csv": "620f0da681179b607a1b542b6657923352178c1bcbc67195e51eb394c9e1730c",
        "t_histogram.csv": "3751e3bd18740b1e946f30672619abe601302e919e546a3a01d4ce544e20a7ab",
        "flatness_audit.csv": "3345853a34ec187e11ae4da097c654932237db574a2c4e4d72fe0da55b282e65",
        "flatness_summary.csv": "63ddd4c06da8461d9c059161f8a75eaba7ede7fa75dd96ba7bf45f8ac505a0cf",
        "entropy_cdf.csv": "468707467fc5c971423b739220c50a52fa0363431cd8428220d1c81356bffee1",
        "features.csv": "f716d4cbec24f014f3e915f295ca58212169eba5855def5dcf02fe9a5e2357f0",
        "t_converged_fraction.csv": "2197f78039af08cd46e1d09d7ebb3c7fdea7b3d2be33888823a5307c3ef7773c",
    },
}


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": (blas.get("name"), blas.get("version")),
            "machine": platform.machine()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_r2d2_outputs_match_golden_fingerprints(tmp_path, name):
    env = _environment()
    if env != RECORDED_ON:
        pytest.skip(f"fingerprints recorded on {RECORDED_ON}, this is {env}")
    args = ["r2d2", "--out", str(tmp_path)]
    for key, value in {**BASE, **CONFIGS[name]}.items():
        args += [f"--{key}", value]
    assert main(args) == EXIT_OK
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert got == GOLDEN[name]


# 36,000 rows, 17,980 of them unlabeled: every CSV of the run spans
# more than two blocks of 8,192 rows.
POOL = {"gauss_per_class": "9000", "seed": "17"}

GOLDEN_POOL = {
    "model.d2ck": "3faf90a10ad08eb0cc20aae03e0f485bd66c134772408b3428946583ceaefc82",
    "pseudo.d2pl": "c4a3ed1a97bb18dea473d3b54e9cb13224996648c0152c7b97150c8c81b5b5a8",
    "dataset.csv": "de701a73c6a98a0c215e4db25f99c4f82381996aab57facf0f61e32976f09123",
    "t_histogram.csv": "ebd767f8efef123947c3fa81706f0d6de9a6f905c5dffa1b718043d8c0402915",
    "flatness_audit.csv": "f050d20e4a4de40f1d865f4f1324b442f637149657832fe21b18184ef27b0ca7",
    "flatness_summary.csv": "9a0ca05e38f5e9d8dc825d4a22d88fc5f8161f212edc1e754282e1383b67e7bd",
    "entropy_cdf.csv": "923efec1cb64aa472fefd9c2dc72c62567afbe9f1fd3b46fbace34dd78bc6ee5",
    "features.csv": "34404b1a6bd92f4d84385a4f73960b4b173512c72df85be71e585bd133935624",
    "t_converged_fraction.csv": "3f788f1d7203ef6b626de82962735fd748b480a37d02e4ab4a2509d68f10684f",
}


def test_diagnose_on_a_multi_block_pool_matches_golden_fingerprints(tmp_path):
    """Fresh params and pseudo-logits on a large pool, as the benchmark's
    artifact_roundtrip workload builds them, written out and diagnosed."""
    env = _environment()
    if env != RECORDED_ON:
        pytest.skip(f"fingerprints recorded on {RECORDED_ON}, this is {env}")
    cfg = parse_config("", POOL)
    dataset = build_dataset(cfg)
    params = model.init_params(cfg.model_sizes(), cfg.activation, numerics.seeded_rng(cfg.seed))
    store = pseudo.init_pseudo_labels(dataset, params, cfg.d2_config())
    ck, pl, ds = (str(tmp_path / name) for name in ("model.d2ck", "pseudo.d2pl", "dataset.csv"))
    model.save_checkpoint(params, ck)
    pseudo.save_snapshot(store, pl)
    dataset.save_csv(ds)
    assert main(["diagnose", "--checkpoint", ck, "--snapshot", pl, "--dataset_csv", ds,
                 "--out", str(tmp_path)]) == EXIT_OK
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN_POOL}
    assert got == GOLDEN_POOL
