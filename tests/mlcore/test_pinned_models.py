"""Fitted trees and forests are pinned by SHA-256 digests of their state.

The digests were recorded from the row-based grower, before trees were
grown on distinct rows with integer counts.  Counts are integers, so
every class count, criterion score and tie-break of the count-based
grower equals the row-based value, and the fitted models must match
bit for bit: node arrays, leaf values, importances and ``oob_score_``.

To re-pin after a deliberate model change, run this module as a script
(``PYTHONPATH=src python tests/mlcore/test_pinned_models.py``) and paste
its output over ``PINNED``.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.tree import DecisionTreeClassifier

SPLITTERS = ("exact", "hist")
CRITERIA = ("gini", "entropy")
MIN_LEAVES = (1, 20)
BOOTSTRAP = (False, True)


def state_digest(state: dict) -> str:
    """SHA-256 over every array (dtype, shape, bytes) and the OOB score."""
    h = hashlib.sha256()

    def walk(node: dict, prefix: str) -> None:
        for name in sorted(node["arrays"]):
            a = np.ascontiguousarray(node["arrays"][name])
            h.update(f"{prefix}{name}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())
        if "oob_score_value" in node["meta"]:
            h.update(repr(node["meta"]["oob_score_value"]).encode())
        for child in sorted(node.get("children", {})):
            walk(node["children"][child], f"{prefix}{child}/")

    walk(state, "")
    return h.hexdigest()


def duplicate_heavy_data():
    """40 distinct rows repeated 1-60x; a quarter carry both labels."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(40, 6)).astype(np.float32)
    base[:, 3] = np.round(base[:, 3])  # tied values across distinct rows
    reps = rng.integers(1, 61, size=40)
    rows = np.repeat(np.arange(40), reps)
    rng.shuffle(rows)
    X = base[rows]
    y = (base[rows, 0] + base[rows, 1] > 0).astype(int)
    mixed = np.isin(rows, np.arange(0, 40, 4)) & (rng.random(rows.size) < 0.3)
    y[mixed] = 1 - y[mixed]
    return X, y


def continuous_data():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 7)).astype(np.float32)
    y = (X[:, 0] * X[:, 1] + 0.3 * rng.normal(size=300) > 0).astype(int)
    return X, y


DATASETS = {"dup": duplicate_heavy_data, "cont": continuous_data}


def fit_tree(data, splitter, criterion, leaf, bootstrap):
    X, y = DATASETS[data]()
    idx = np.random.default_rng(5).integers(0, len(y), len(y)) if bootstrap else None
    tree = DecisionTreeClassifier(
        max_depth=10,
        min_samples_leaf=leaf,
        max_features=3,
        criterion=criterion,
        splitter=splitter,
        n_bins=16,
        random_state=3,
    )
    return tree.fit(X, y, sample_indices=idx)


def fit_forest(data, splitter, criterion, leaf, bootstrap):
    X, y = DATASETS[data]()
    forest = RandomForestClassifier(
        6,
        max_depth=10,
        min_samples_leaf=leaf,
        criterion=criterion,
        splitter=splitter,
        n_bins=16,
        bootstrap=bootstrap,
        oob_score=bootstrap,
        random_state=4,
    )
    return forest.fit(X, y)


def fit_mcbound(splitter):
    from repro.core import MCBound, MCBoundConfig, load_trace_into_db
    from repro.fugaku import WorkloadConfig, WorkloadGenerator
    from repro.fugaku.workload import DAY_SECONDS

    trace = WorkloadGenerator(WorkloadConfig(scale=1 / 800, seed=123)).generate()
    cfg = MCBoundConfig(
        algorithm="RF",
        model_params={
            "n_estimators": 8,
            "max_depth": 12,
            "splitter": splitter,
            "random_state": 0,
        },
    )
    fw = MCBound(cfg, load_trace_into_db(trace))
    fw.train(40 * DAY_SECONDS, alpha_days=15)
    return fw.model.model


CASES = [
    (kind, data, splitter, criterion, leaf, bootstrap)
    for kind in ("tree", "forest")
    for data, splitter, criterion, leaf, bootstrap in itertools.product(
        DATASETS, SPLITTERS, CRITERIA, MIN_LEAVES, BOOTSTRAP
    )
]


def case_id(case) -> str:
    kind, data, splitter, criterion, leaf, bootstrap = case
    boot = "boot" if bootstrap else "full"
    return f"{kind}-{data}-{splitter}-{criterion}-leaf{leaf}-{boot}"


def case_model(case):
    kind, *args = case
    return (fit_tree if kind == "tree" else fit_forest)(*args)


PINNED = {
    "tree-dup-exact-gini-leaf1-full": "652317400b597d38ba16de46b8c7ff533db222f74246172942ec1db9ec043d2f",
    "tree-dup-exact-gini-leaf1-boot": "824c055c1b62226b137ebb6d3e2be7e1b16bcde55814512b8646cf8b7d7e01a1",
    "tree-dup-exact-gini-leaf20-full": "34cac55005bede9fe58f56cc38b5f519cee42f73b1c052f7966111da42313a24",
    "tree-dup-exact-gini-leaf20-boot": "3e667330f144afc5e78be467a4f331e9440dc80c35069498c3665e2377ab154e",
    "tree-dup-exact-entropy-leaf1-full": "3d5a629a5c6ad928a2413add2eb45f9b859239da1cf8104ecd970a742b38d839",
    "tree-dup-exact-entropy-leaf1-boot": "81cfd692ec7047371b76d8c39d4b4945c158e50576a483e7d57799559438c596",
    "tree-dup-exact-entropy-leaf20-full": "afeb6d3348053a7463ca5b2947f2d243618713c0983f0106acb060dd1ada4d1d",
    "tree-dup-exact-entropy-leaf20-boot": "b7afb65d29e98d28a690e0c949f5c787db7c9a031fe1be66f4ac9d1cea432a6f",
    "tree-dup-hist-gini-leaf1-full": "c163bf54f29e46b3b359f19acbcea9fdeb5b2b59c1afe53481660eee02c68d51",
    "tree-dup-hist-gini-leaf1-boot": "b8d9b04485ca6a989b78d1c967682727183ac926bd45ecafb543be05c4522c7f",
    "tree-dup-hist-gini-leaf20-full": "64a8b09634d4745efee7ee4931d69afc11e2ccfcdf3a18c641c753e6a6391117",
    "tree-dup-hist-gini-leaf20-boot": "0273e7ed01e23eb815767adc7edab6eabfdb966aa5cd0d38a3654b5a956c5032",
    "tree-dup-hist-entropy-leaf1-full": "00d56804968801f595afb95e0dbb4b91846180a7c43f7c81bc7dd774e06aabb8",
    "tree-dup-hist-entropy-leaf1-boot": "e997ad716e25a0f30f62a1d4e1928be20d5bfe0ca859579ef4c4c91be93c605c",
    "tree-dup-hist-entropy-leaf20-full": "c694ac4eee8c83c03f6cab7e0f123d54d32cf3863d84d441c2e2e4e712f59c6f",
    "tree-dup-hist-entropy-leaf20-boot": "f33dd75f5bb9e09fff60f5462664c13dd3e93c55b0343df026b9d4c2fe058584",
    "tree-cont-exact-gini-leaf1-full": "49c9df3cf5867a7ceeaadbf599b2baf7c5e3724e419dda18721cd97f54dfb1f9",
    "tree-cont-exact-gini-leaf1-boot": "75c909b6dbb54fd45d523a771a74620da7700d700a20dd3abee6154d3194e708",
    "tree-cont-exact-gini-leaf20-full": "f700d0c138995d861e19b7d0d927a353316a87f137307b501abed0d86d22acc3",
    "tree-cont-exact-gini-leaf20-boot": "75eda28ead254922a81e3edce41c4c26c92dc683af165cf5e1594db2281a2f0c",
    "tree-cont-exact-entropy-leaf1-full": "23a03e3f7ce4aa49a4a5f82c866f205c3197599a5a460135fb3041d2d04c06b3",
    "tree-cont-exact-entropy-leaf1-boot": "a271c1d25a4bb80cbd1c729611f6868d2234d08890bbc8b02fb731507cf1f048",
    "tree-cont-exact-entropy-leaf20-full": "b597017001f5f71bf32d9c7de64a1a6b049ad555a02c46253247bc9c4942e251",
    "tree-cont-exact-entropy-leaf20-boot": "216b1414b080f2e0a43ce4bcd47f0aec3df649935d606f7e473e63e9fff6a077",
    "tree-cont-hist-gini-leaf1-full": "227df7462323e11479713aef72bbef17f6fef8516b597a97810fcd1c6bff0ef8",
    "tree-cont-hist-gini-leaf1-boot": "568b2ecd9d6b716d108c40906a35d8e9340b7eaf7ce4a696ce717806375f1b7e",
    "tree-cont-hist-gini-leaf20-full": "e893dc4f631a9b26a8c2fb4d5d49bc32284652659e0428d01a248dd1fe439fcd",
    "tree-cont-hist-gini-leaf20-boot": "48b0e28f3702413c13bd496a679d3285b67d6fe0b7f187b909c0c64ec1c48135",
    "tree-cont-hist-entropy-leaf1-full": "89a2504af06d9b5de859e8d3094533bc9638b4be2640533046cbacbd4355f2f5",
    "tree-cont-hist-entropy-leaf1-boot": "3e06767e4bb43af1373ba47eca008f9213cc95886503485246f588b0ed8abfa0",
    "tree-cont-hist-entropy-leaf20-full": "b6aaea284f46facd59646e370e415ea3eb6632002294343dc318c4741389528f",
    "tree-cont-hist-entropy-leaf20-boot": "6ba5dfd1aa423654233078ca18631a8c159598f2a6e76adc34ba8a82482a0ebf",
    "forest-dup-exact-gini-leaf1-full": "262e7e3203322c9897f080268b98b06e835b451b2bc574b91ec7f2e92fe869af",
    "forest-dup-exact-gini-leaf1-boot": "a1ac4c13d3a013682c3064bc019d110da272b39c05ac979948538c933834f73b",
    "forest-dup-exact-gini-leaf20-full": "f91c55c7facc4b804361ddf4ede4c58a221c99410df5793b4e91b4ae3304032f",
    "forest-dup-exact-gini-leaf20-boot": "6ac1b026c9a551a0aa5454ecb11ea9123a8833980dd30aa3f4fc30c95bde5ec9",
    "forest-dup-exact-entropy-leaf1-full": "03286485e24d213cb834a0108fb789c453d9317ac0ea636a9bf89a3ae0d2a1ce",
    "forest-dup-exact-entropy-leaf1-boot": "1d253523c0cd6a6db766431b9b62cacf86fbef0bff874370fa29857bccc7ba04",
    "forest-dup-exact-entropy-leaf20-full": "30774f4e1542575075aa426f77e427d773d88d87ac8a5843e1021c45d95f0cfd",
    "forest-dup-exact-entropy-leaf20-boot": "6f36813396bd9adbaa5b0f75026a398f6254b4ba6ffda6a0327f6b2e9c275993",
    "forest-dup-hist-gini-leaf1-full": "a421b836392d3815df561aea7a9ff48c6e0c3cf49c9c21ef0f8f3daec6b4ffb7",
    "forest-dup-hist-gini-leaf1-boot": "6d595715a4bf050947931d5b5074346de4fc4c82f88a0af6cd91bd9a6ae0bc6b",
    "forest-dup-hist-gini-leaf20-full": "637ea32a009ebea93fb6dec17a3211d434b9f6dd36ac54a6bb78fac684a7676a",
    "forest-dup-hist-gini-leaf20-boot": "cf9f7c20ccfc973b256e3045ddd092484158f5c04c85637d231218fc2760b317",
    "forest-dup-hist-entropy-leaf1-full": "db07cf0664dc1974333b7593d8666e10a0ed7e80b1429d6c691cac153f813118",
    "forest-dup-hist-entropy-leaf1-boot": "dc252a392b34bfdcd642b1b5c4f35f38be8429c93aea20341023e5cd75107643",
    "forest-dup-hist-entropy-leaf20-full": "a52973161720bc968470513dac265d21c084489f248d8d161dce8b4fc785ce36",
    "forest-dup-hist-entropy-leaf20-boot": "dfb0e12f47632a7f051a4a17246b37c6f9689188720f3cd68f10f4f65496db3a",
    "forest-cont-exact-gini-leaf1-full": "689c96c078fc73cab0c549ff40ab49297dcce1ceb7b2529aac9b3930d1d39d3b",
    "forest-cont-exact-gini-leaf1-boot": "9010cfa8fbae0699b8b00f747d129c41a9db67be288018e36cb56b0002c9cb59",
    "forest-cont-exact-gini-leaf20-full": "0cf75ba09d03502da5079deee22fd7bd5ddd3f8b6c42c8b1254b9e439b8cc01d",
    "forest-cont-exact-gini-leaf20-boot": "80428b163da9b3a508880372567e37b3557013aa68bca38f22e409c09a6b835b",
    "forest-cont-exact-entropy-leaf1-full": "9eb5682ea7fad75ac2f84b223cfb11e368a6b4b5742da22ec2717ae132511501",
    "forest-cont-exact-entropy-leaf1-boot": "8c77a7d23cc31738a63c3a4280b577fc9f50b98f5f652d71f163bc837f67ad72",
    "forest-cont-exact-entropy-leaf20-full": "c9775fd5568a0cacd3d9cc717382009bcae82f5186310973b14d4c5c317d34ca",
    "forest-cont-exact-entropy-leaf20-boot": "a9bd8b8faea248537099a24867a9c8fd63f34e9fe71f697156c3bac9af442b7d",
    "forest-cont-hist-gini-leaf1-full": "dae30e529d075d9b73cab233f29eb362437e1497a551b1623fc56ed08dddec7d",
    "forest-cont-hist-gini-leaf1-boot": "10c5ebdf96348f7d43561928485882abe63b06978e689fb9221fd2e61ec95cb2",
    "forest-cont-hist-gini-leaf20-full": "40412ffefae7b02147f3a98c21f2e950d866e35338a8f76f6e10c4f49d98099f",
    "forest-cont-hist-gini-leaf20-boot": "ba53e0a2613afe34c8d670332c28d61a8f0a2cef7f970e00ce097b5e25f2dcb4",
    "forest-cont-hist-entropy-leaf1-full": "bfaa073243e0c4014550f6ed0d681e183d93c75f6b120e099e0da1a40d96b6c5",
    "forest-cont-hist-entropy-leaf1-boot": "d804d63983d845f5b3be16e5f6e8fc28d3f36d9aba8b3a5bd89cd58333eba90b",
    "forest-cont-hist-entropy-leaf20-full": "6d71501416eeb197153e9711b1a8b1d0b70020b8ede67352239bf5bb185df015",
    "forest-cont-hist-entropy-leaf20-boot": "5ac3728355ff5f5f575a8022e557cc7b8c8b6ad6ab5ff27d1f249cebc530461d",
    "mcbound-rf-exact": "d39aa0bf516e60f0d7017319efd4e28f11b1145547cbc0c21eb2bfd95e24af56",
    "mcbound-rf-hist": "4251a46d089917c838be84073de3bcbeced693692887f9d9902baf9d72c326b0",
}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_model_matches_pinned_digest(case):
    assert state_digest(case_model(case).get_state()) == PINNED[case_id(case)]


@pytest.mark.parametrize("splitter", SPLITTERS)
def test_published_mcbound_model_matches_pinned_digest(splitter):
    model = fit_mcbound(splitter)
    assert state_digest(model.get_state()) == PINNED[f"mcbound-rf-{splitter}"]


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        print(f'    "{case_id(case)}": "{state_digest(case_model(case).get_state())}",')
    for splitter in SPLITTERS:
        digest = state_digest(fit_mcbound(splitter).get_state())
        print(f'    "mcbound-rf-{splitter}": "{digest}",')
    print("}")
