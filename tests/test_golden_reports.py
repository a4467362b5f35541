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

The 10 `sigma` and 8 `antipode` digests were re-recorded when each command
came to write the `verify` section of the same name, byte for byte
(test_command_report_is_the_verify_section pins that), and the `braided`
command and its 10 digests went.  `antipode` renamed its matrix `matrix`,
gained `exists`, `unique` and `xi_eta_is_identity`, and dropped the rank-1
`a` (eta_00 xi_00 of the config, reported by every `sweep` row).  `sigma`
gained `consistent` and `braided_iff_discrepancy` and dropped `sigma_unique`
(`consistent` with dimension 0), the top-level `invertible`, `braid_eq` and
`braided_verdict` (copies of `braided_flags` entries) and the rank-1 `a` and
`min_poly_ok` (at rank 1 `verify`'s hard checks hold `min_poly_ok` on the
closed form and `sigma_closed_form_match`).  The `braided` report was
`sigma`'s `braided_flags` with `solution_space_dim`, or `{"consistent":
false}`, and every config it was recorded on has a `sigma` digest.  No value
changed: each old key was compared with its new reading on every config
above.

The 4 `sigma` digests of `r2_no_antipode` and `r3_identity`, each under both
pairings, were recorded before the scattering was solved from the two
4^n-sized factors of its square, when neither config had an antipode and
the square was solved in all 16^n entries (at rank 3, 74 s of CPU under
"inner" and 86 s under "straight").
"""

import hashlib
import json

import pytest

from xcliff import braiding
from xcliff.cli import dump_json, main, read_config
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
    # no antipode here, and a scattering family of dimension 240
    "r2_identity_straight": (2, [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]], "straight"),
    # no antipode under either pairing: no scattering under "inner", a
    # family of dimension 192 under "straight"
    "r2_no_antipode": (2, [["0", "1"], ["-1", "0"]], [["0", "-3"], ["1", "1"]]),
    "r2_no_antipode_straight": (2, [["0", "1"], ["-1", "0"]], [["0", "-3"], ["1", "1"]],
                                "straight"),
    "r3_zero": (3, Z3, Z3),
    "r3_diagonal": (3, [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "2"]],
                    [["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]),
    "r3_generic": (3, [["1", "1/2", "0"], ["-1", "2", "1"], ["0", "1/3", "-1"]],
                   [["1", "-1", "0"], ["1/2", "1", "2"], ["-2", "0", "1"]]),
    # no antipode under either pairing: families of dimension 3072 ("inner")
    # and 4032 ("straight")
    "r3_identity": (3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    "r3_identity_straight": (3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                             [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "straight"),
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
    ("sigma", "r1_a1"): ("b8cd3933019ec97c576dd92332bcabe7ea6fefda2db1879bf2625de326b6c027", 0),
    ("sigma", "r1_complex"): ("0b36885352c0106927881618ba973ec89006e471f44c12f20c29d2216e5406c7", 0),
    ("sigma", "r1_2_third"): ("457827925b27df7c16711268e2150e294d6134ebdaaf23aeecc39e3dba774aa1", 0),
    ("sigma", "r2_zero"): ("2075761a0c8cd8291d3c4a00d7f9be19894b7eeb58afe8bdbb75223a155d608e", 0),
    ("sigma", "r2_diagonal"): ("457827925b27df7c16711268e2150e294d6134ebdaaf23aeecc39e3dba774aa1", 0),
    ("antipode", "r1_a1"): ("2df1705b1ed4cc8fe343ee21715d2c1e674a1af8837ad7015d120b3d757260a7", 0),
    ("antipode", "r1_complex"): ("20c79733203626e54ee38c5ca79f3a3338c89abae40e334b796c5548d2f609a8", 0),
    ("antipode", "r1_2_third"): ("d7e845e217d1a16ef586ac079ee90c8edf813ca6e6f1e34f28111842da662ab6", 0),
    ("antipode", "r2_zero"): ("9c4e643a0c7cb4edf4318fd41239078e910afee9ec5b1d3103f9b8a473945a66", 0),
    ("antipode", "r2_diagonal"): ("087ec4f914136fd5825361f1aa2f600b05a7ac81f57ab8e10f86b4c0971ab7e3", 0),
    ("tables", "r1_complex"): ("66d73612f37b003ac3d84d7ffb81d75ad1a4fd3f24f29fc41704187cd8923871", 0),
    ("tables", "r2_generic"): ("c6cae7258d38dd9a563f3103c032196264832f0afce9824a90526ecee85d741a", 0),
    ("tables", "r3_diagonal"): ("ea4a70dd2010b79d1f947131f62a7e522bc5d6990deb27a153d92b13a206c829", 0),
    ("shuffle", "r1_complex"): ("fbbf120a569d4f9fde2dae534a464553c57471dbfd6f452c89693c0980d38032", 0),
    ("shuffle", "r2_generic"): ("fbbf120a569d4f9fde2dae534a464553c57471dbfd6f452c89693c0980d38032", 0),
    ("sigma", "r2_generic"): ("457827925b27df7c16711268e2150e294d6134ebdaaf23aeecc39e3dba774aa1", 0),
    ("sigma", "r2_xi0"): ("2075761a0c8cd8291d3c4a00d7f9be19894b7eeb58afe8bdbb75223a155d608e", 0),
    ("sigma", "r2_eta0"): ("2075761a0c8cd8291d3c4a00d7f9be19894b7eeb58afe8bdbb75223a155d608e", 0),
    ("antipode", "r2_generic"): ("367fe7d3a17f6017b1b8bfd62ba3e509bde4e05ed9c958ea544ff3ba97f53490", 0),
    ("verify", "r3_generic"): ("bebcb854750246a89e7120a63a5dae10b164212bca451083f3f1772c227cb6c9", 0),
    ("verify", "r2_generic_straight"): ("e57103440bda3ac3d9f946e3e48378488fa27c3e2733770e3d62776e1363a36d", 0),
    ("tables", "r2_generic_straight"): ("4c8b18239bd951ea88ae5013ff7d014589554a45537ff59f0ee72c84998d63c0", 0),
    ("tables", "r3_generic"): ("f6ee9c3324e2fdd9d0d2fbcd58375226db37953f61a0055f312f480636e1ebad", 0),
    ("antipode", "r2_identity"): ("c7c7777e2bd42e5032e3204bd5d2869715c7b9d13e9e7a3af327931d6b9b0ade", 0),
    ("sigma", "r2_identity"): ("0b36885352c0106927881618ba973ec89006e471f44c12f20c29d2216e5406c7", 0),
    ("antipode", "r2_identity_straight"): ("2df1705b1ed4cc8fe343ee21715d2c1e674a1af8837ad7015d120b3d757260a7", 0),
    ("sigma", "r2_identity_straight"): ("54564c4975c1146b5f2b6b48f0205371d55b473b724c54a107ec81173245eafa", 0),
    ("sweep", None): ("d7ac6eb5bfec09a2e942de070140b29b34bd442a0785f5bbca17d126dafd1b2c", 0),
    ("sigma", "r2_no_antipode"): ("f969a901e3eb9d08a1fb1688d9a13464f6777732bab6897a640ddb606b5a445c", 0),
    ("sigma", "r2_no_antipode_straight"): ("d83d8645ea6d2893f79d5098d704d30d21e2132854508a0e800d330fc8537905", 0),
    ("sigma", "r3_identity"): ("1bcc098419e6e021fabd7cfda1b4e365f302960487aa4cfe55c2001c59156c37", 0),
    ("sigma", "r3_identity_straight"): ("9f5abeb0b11803d9660efcc8218b9fd9bb3272bae323ca9b3afba7ec292adc8e", 0),
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
    s = read_config(config_data(name))
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


# every config of rank <= 2 under each pairing: the "_straight" configs are
# among these
SECTION_CASES = [(name, pairing) for name, (n, *_) in CONFIGS.items()
                 if n <= 2 and not name.endswith("_straight")
                 for pairing in ("inner", "straight")]


@pytest.mark.parametrize("name, pairing", SECTION_CASES)
def test_command_report_is_the_verify_section(tmp_path, name, pairing):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**config_data(name), "pairing": pairing}))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for section in ("antipode", "sigma", "shuffle"):
        assert main([section, "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == dump_json(report[section]), section
