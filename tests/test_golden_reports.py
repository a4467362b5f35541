"""Golden reports: the sha256 of each report below, with its exit code, is
pinned, so a refactor that changes any report byte or verdict fails here.

The digests were recorded from the program before the sparse map layer
replaced the hand-written product/coproduct/crossing loops (the `tables`,
`shuffle`, straight-pairing and rank-3 generic reports and the `sigma` and
`braided` reports on non-diagonal forms were added before solved maps were
read back as sparse maps; the rank-2 scattering digests were added before
both product tables were built from one cliffordization composite; the
rank-2 and rank-3 `tables` digests on r2_generic_straight and r3_generic and
the `eta = xi = id` antipode/scattering digests under both pairings were
added before the structure constants were stored only as sparse maps); when
a report changes on purpose, record the new digest together with the reason.

The 13 `verify` digests were re-recorded when `verify` stopped reporting
facts that are not of the instance: the hard checks `exterior_laws` (rank
only), `product_coproduct_duality` (true by construction of the coproduct)
and `zero_form_coproduct_is_unshuffle` (rank and pairing only), and the
antipode's `axiom_holds` (certified by the solver), were removed, and
`braided_iff_discrepancy` now compares {invertible and braid} with "a form
vanishes", as criterion 08 reads the iff.  Each new report is the old one
with exactly those keys deleted; no value of these 13 reports changed.

The 10 rank-1 and rank-2 `verify` digests and the 2 `shuffle` digests were
re-recorded when each fact came to be decided once: the scattering members
are no longer re-substituted into the compatibility square (`solve_sigma`
certifies every member), so `sigma.defect_zero_on_members` and the hard
check `sigma_members_solve_square` went; the word facts fixed by the rank
and the bound (`pairing_dualities`, `antisymmetrizer_ranks_binomial`,
`zero_crossing_compatible`) left the `shuffle` section and the `shuffle`
report, and are proved in tests/test_tensor_shuffle.py; and the rank-1 hard
checks `sigma_quartic_annihilates` and `antipode_absent_at_unit_composite`
took the names of the `sweep` rows, `min_poly_ok` and `no_antipode`.  Each
new report is the old one with exactly those keys deleted or renamed; no
value changed.  The rank-3 `verify` reports skip both sections and did not
change.
"""

import hashlib
import json

import pytest

from xcliff import braiding
from xcliff.clifford import CliffordStructure
from xcliff.cli import main
from xcliff.linmap import keys

Z2 = [["0", "0"], ["0", "0"]]
Z3 = [["0", "0", "0"]] * 3
CONFIGS = {
    "r1_a1": (1, [["1"]], [["1"]]),
    "r1_complex": (1, [["-1"]], [["1"]]),
    "r1_2_third": (1, [["2"]], [["1/3"]]),
    "r2_zero": (2, Z2, Z2),
    "r2_diagonal": (2, [["2", "0"], ["0", "-1"]], [["-1/3", "0"], ["0", "1/2"]]),
    "r2_xi0": (2, [["1", "1/2"], ["-1", "2"]], Z2),
    "r2_eta0": (2, Z2, [["1", "-1"], ["1/2", "1"]]),
    "r2_generic": (2, [["1", "1/2"], ["-1", "2"]], [["1", "-1"], ["1/2", "1"]]),
    "r2_generic_straight": (2, [["1", "1/2"], ["-1", "2"]], [["1", "-1"], ["1/2", "1"]],
                            "straight"),
    "r2_identity": (2, [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]),
    # no antipode here, so the scattering takes the linear solve (dimension 240)
    "r2_identity_straight": (2, [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]], "straight"),
    "r3_zero": (3, Z3, Z3),
    "r3_diagonal": (3, [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "2"]],
                    [["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]),
    "r3_generic": (3, [["1", "1/2", "0"], ["-1", "2", "1"], ["0", "1/3", "-1"]],
                   [["1", "-1", "0"], ["1/2", "1", "2"], ["-2", "0", "1"]]),
}

SWEEP = ["sweep", "--samples", "40", "--seed", "7", "--a-values=-1,0,1"]

# (command, config name or None for the sweep) -> (sha256 of the report, exit code)
GOLDEN = {
    ("verify", "r1_a1"): ("03164c4e44662c5be59bca0745c5616ad73694cdeae5f8e2a8b70f314bc7c4bd", 0),
    ("verify", "r1_complex"): ("6f2e1b2704dd1f69dc60d87a9cf1acd37fca0214207d435cea232f76b1b22a96", 0),
    ("verify", "r1_2_third"): ("d7c1114516b3c2b73481de81d941fa2559cc404af28cc4efe28ab2bdd354b445", 0),
    ("verify", "r2_zero"): ("d641b726f0093eba74d2286d28f2d67d060d31959a21042a563f02f643771953", 0),
    ("verify", "r2_diagonal"): ("67ed00bb48b22b78b4df419f32ea36b1c6d90dc2c16d280dd374468d8987326c", 0),
    ("verify", "r2_xi0"): ("ced718191a9654853ad56662e184d76fc1e8eea6409d491de3e49e3ab91b3fd7", 0),
    ("verify", "r2_eta0"): ("92ec9bac618be92dc707fddc70fa8de364cafa48321b365a4bee2d9f4a0634a7", 0),
    ("verify", "r2_generic"): ("4e3e8bff6de4c161fb2f3dc041ae53d7bb638ff793e1fb3472c717ec527dd6ad", 0),
    ("verify", "r2_identity"): ("15cb8817e74e2f6d4639f30804ce38d81b864da7d4c436483e3c224bbee633d1", 0),
    ("verify", "r3_zero"): ("eccb1cfff284d96abff2992b36ef9a6e0538135b6c9b49fe02db44ffad81ec20", 0),
    ("verify", "r3_diagonal"): ("753ef4d1e6a1421b6d98a6e742b908b953cc5c632042a5be0d2c17b9a9e8cabb", 0),
    ("sigma", "r1_a1"): ("d5159b1dcd06074f80ebf0fc8db58ac056f088e1081d94937d3e1fc197eb73a9", 0),
    ("sigma", "r1_complex"): ("2a18436d7bef17b62d6aa622fcc58a9f1511323beac57fd4494ab3bdf563a0d1", 0),
    ("sigma", "r1_2_third"): ("924278ac4cbb8d1e8abe9ad8e79e8ea7e8f540d47986e20abacd43d58bec9ed6", 0),
    ("sigma", "r2_zero"): ("373b678be467b007efddb18456b79cccb433886c8dc826350e836ef76dd75a40", 0),
    ("sigma", "r2_diagonal"): ("373b678be467b007efddb18456b79cccb433886c8dc826350e836ef76dd75a40", 0),
    ("braided", "r1_a1"): ("3eef4058ceeb701625ea1faa908b7252a0f236a0c39440cec59a41d7c8aeccfa", 0),
    ("braided", "r1_complex"): ("515b7ca29317559fd7fd09a168c996febf5a8ae6436ff97d07d474404b45867c", 0),
    ("braided", "r1_2_third"): ("92a0b04fc9b18b7de269fd20db22518a01f542fad3b4f5128d4cc4d420bb01ca", 0),
    ("braided", "r2_zero"): ("92a0b04fc9b18b7de269fd20db22518a01f542fad3b4f5128d4cc4d420bb01ca", 0),
    ("braided", "r2_diagonal"): ("92a0b04fc9b18b7de269fd20db22518a01f542fad3b4f5128d4cc4d420bb01ca", 0),
    ("antipode", "r1_a1"): ("066e77c3e2b6533d0a8ce49d12dae77d69464949b75c9500e0c8433be6424137", 0),
    ("antipode", "r1_complex"): ("8584c82094861967bd154d0951f0612ddb975a5492af6fbc457d39842f3df57d", 0),
    ("antipode", "r1_2_third"): ("257c20d5684219699c6aa0ccb82b156679ebb9b4f3c5f378ab61a3bbce06a90a", 0),
    ("antipode", "r2_zero"): ("b20fd217bb667d8ffa01c724e045a441586299a5369c86968121eec8a15dfb52", 0),
    ("antipode", "r2_diagonal"): ("854eeef1155ebac2fc54fb9ecdeff8461a5bef52799bc837506d43c2c9e70089", 0),
    ("tables", "r1_complex"): ("66d73612f37b003ac3d84d7ffb81d75ad1a4fd3f24f29fc41704187cd8923871", 0),
    ("tables", "r2_generic"): ("c6cae7258d38dd9a563f3103c032196264832f0afce9824a90526ecee85d741a", 0),
    ("tables", "r3_diagonal"): ("ea4a70dd2010b79d1f947131f62a7e522bc5d6990deb27a153d92b13a206c829", 0),
    ("shuffle", "r1_complex"): ("fbbf120a569d4f9fde2dae534a464553c57471dbfd6f452c89693c0980d38032", 0),
    ("shuffle", "r2_generic"): ("fbbf120a569d4f9fde2dae534a464553c57471dbfd6f452c89693c0980d38032", 0),
    ("sigma", "r2_generic"): ("373b678be467b007efddb18456b79cccb433886c8dc826350e836ef76dd75a40", 0),
    ("sigma", "r2_xi0"): ("373b678be467b007efddb18456b79cccb433886c8dc826350e836ef76dd75a40", 0),
    ("sigma", "r2_eta0"): ("373b678be467b007efddb18456b79cccb433886c8dc826350e836ef76dd75a40", 0),
    ("braided", "r2_generic"): ("92a0b04fc9b18b7de269fd20db22518a01f542fad3b4f5128d4cc4d420bb01ca", 0),
    ("braided", "r2_xi0"): ("92a0b04fc9b18b7de269fd20db22518a01f542fad3b4f5128d4cc4d420bb01ca", 0),
    ("braided", "r2_eta0"): ("92a0b04fc9b18b7de269fd20db22518a01f542fad3b4f5128d4cc4d420bb01ca", 0),
    ("antipode", "r2_generic"): ("28c3415ff91139bdca91c9745cf6dc77bd80321af47b425f4844b6576119ddb1", 0),
    ("verify", "r3_generic"): ("bebcb854750246a89e7120a63a5dae10b164212bca451083f3f1772c227cb6c9", 0),
    ("verify", "r2_generic_straight"): ("e57103440bda3ac3d9f946e3e48378488fa27c3e2733770e3d62776e1363a36d", 0),
    ("tables", "r2_generic_straight"): ("4c8b18239bd951ea88ae5013ff7d014589554a45537ff59f0ee72c84998d63c0", 0),
    ("tables", "r3_generic"): ("f6ee9c3324e2fdd9d0d2fbcd58375226db37953f61a0055f312f480636e1ebad", 0),
    ("antipode", "r2_identity"): ("7a709f6849674227f2889acccb9dbc79ee125d63f140cf47fc358912f3690b46", 0),
    ("sigma", "r2_identity"): ("184fb5fbd4cadf64fc8a29ad764d9369acb419a04d7e575e266cdfc6d77559fe", 0),
    ("braided", "r2_identity"): ("515b7ca29317559fd7fd09a168c996febf5a8ae6436ff97d07d474404b45867c", 0),
    ("antipode", "r2_identity_straight"): ("91c707beae12024336deaad16203c206d1dd0da4a06e5b632986e01e6250f92c", 0),
    ("sigma", "r2_identity_straight"): ("fe9edc4a2d967e9101954bc8013084133dbc020ced82d8b34a630d04d067896c", 0),
    ("braided", "r2_identity_straight"): ("13a9027408728235264d34b9e78cc84567cc7a62a34cee0816fb83206c0ddad8", 0),
    ("sweep", None): ("d7ac6eb5bfec09a2e942de070140b29b34bd442a0785f5bbca17d126dafd1b2c", 0),
}


# config name -> sha256 of json.dumps of the solved scattering's matrix; the
# `sigma` report holds no entry of it, so these pin the entries themselves
SCATTERING = {
    "r2_zero": "3540d4c8caa9b62094314717f91e197fcc21a85afd82246ac7cb36c5a9c9b2a2",
    "r2_diagonal": "f890c41787c1c2bafa09c03443781d1792b54f98f3b387c65a638ea562d02660",
    "r2_xi0": "dcfeb8ae02f6fce70a2ecff85d95918dc522f5b6900e47fbe6baf09eff3da27b",
    "r2_eta0": "31eb973342092defd728fcf1c1042837cc2312e74fa1df92d0a9c3089cbc1847",
    "r2_generic": "386bab579f017fb24dfcd6487e579f9935150201c62c8c7c58ce240243c1a499",
    "r2_generic_straight": "8073781c44d2c28f6e60110469de509d0c25214acf7193a296f678b8245f3636",
}


def config_data(name):
    n, eta, xi, *pairing = CONFIGS[name]
    data = {"n": n, "eta": eta, "xi": xi}
    if pairing:
        data["pairing"] = pairing[0]
    return data


@pytest.mark.parametrize("name", list(SCATTERING))
def test_scattering_matches_golden_digest(name):
    s = CliffordStructure.from_config(config_data(name))
    sigma = braiding.scattering_map(s, braiding.solve_sigma(s).particular).to_matrix(keys(s.n, 2))
    assert hashlib.sha256(json.dumps(sigma.to_json()).encode()).hexdigest() == SCATTERING[name]


@pytest.mark.parametrize("command, name", list(GOLDEN), ids=lambda v: str(v))
def test_report_matches_golden_digest(tmp_path, command, name):
    if name is None:
        argv = list(SWEEP)
    else:
        data = config_data(name)
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(data))
        argv = [command, "--config", str(cfg)]
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    assert (hashlib.sha256(out.read_bytes()).hexdigest(), code) == GOLDEN[(command, name)]
