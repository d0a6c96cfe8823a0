"""Golden fingerprints: simulator and training outputs pinned byte for byte.

The hashes were frozen from the from-scratch simulator (every concept and
the ready set recomputed at each decision). Any rewrite of the simulator,
the concepts or the rules must reproduce them exactly. The budget-1000
training hashes on ft10 and ta01 were frozen from training that simulated
every episode in full, before it gained its episode cache; those on ft06,
seeds 0-3, from training that drew weights with one `rng.random()` call
each and interpreted programs node by node. The episode-cache counts
(`TRIE_COUNTS_1000`) were frozen from the trie whose nodes all stored a
concept vector and a pick map, forced decisions included.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from conftest import DATA_DIR, INSTANCE_DIR, get_params
from prorl import dsl, search, sim
from prorl.cli import main
from prorl.instance import load_instance_file
from prorl.pdr import Heuristic
from prorl.sim import run_pdr

# (instance, rule) -> (makespan, sha256 of trace_csv, sha256 of schedule_csv)
PDR_GOLDEN = {
    ("ft06", "FIFO"): (65, "43c89eec28109382a25adca5504f65082b26d03a738ae1ef43634848a07b5ea5", "4c61477d6482af78a9ae1a71e53f3d5c582d0534bc6302335b7d5da6e8035b9f"),
    ("ft06", "SPT"): (88, "af337a688b91eaea063497f41296c37689c9e0c260e8ddf6ed0d4cebe7f480a4", "5bde04871600734ea50d34c9c8ceb4219ea65cd154a337e3057f5a6d23a55e33"),
    ("ft06", "MOR"): (59, "ca115e1c81e1a7a108a4df5df482ca6c7908693451b736cd6ae0d45e72ad0d3a", "5c5d4f899a57e789e490a3cb8036f39255e0e47f8f5313af5c92420d0abcacd9"),
    ("ft06", "MWR"): (61, "2ccbc2c7357c6d9097abe28ffbc34cdfe5cbfdf90f3ea8de490758c879d7dd95", "8eeeedeaa0e725869c7e87a89a0612060a2cee86a1074e0864441606239c37e5"),
    ("ft06", "LOR"): (68, "7dc2c97dd2799b24c5a1405ddb3f74a9a14b742090b227471110a17785c94351", "b04364915db28e560ba25210467622723cd310b7e9c9aaf038f67b79d3856da4"),
    ("ft10", "FIFO"): (1184, "46aeb9761141cca8ad5ccc0f1402347e09b9d4dfb14fa642b3f9d25a1d884a27", "60895c3931747a19790caec5807db689b8047daf2069d49f8dde50f19338df89"),
    ("ft10", "SPT"): (1074, "6a3e5d5954bddd15a2bc57808d5bbe0eeb506038d15c4124019f2511ec45ae42", "b4b8d362d059c7006874594fd4e3b1f3769254224e9d4aab3615155865a77dae"),
    ("ft10", "MOR"): (1163, "c25f9bbb46b46ffe1fcf0c8f24d784ce16b985af2e9fb37eb782881852194466", "43bae502889af026f993e5348720903af7236ef88842d8efc24b3498d28f12ff"),
    ("ft10", "MWR"): (1108, "c0c03a83b3e117036f0617831b8986ef97f6d4fc1ba99cbbcad1165b9eb20ef8", "dfc8612ea35817e85807aa49f3cc2fb68b22563b3c8013c90890089c38da0863"),
    ("ft10", "LOR"): (1352, "c13244f1f605cad6f8d1736e58e3ac76bd313d50cf050a4e6c943ca491fe5adf", "83577e5960dd2dd3d5cd08529d8e8e8d76fc55add9cdc47d67fd42c45ed1f7d3"),
    ("ta01", "FIFO"): (1486, "8d91281ef6cd391fe6ca376f89860dbd23f5cf9976cf1dbea08e439059e39261", "47eb152e2da9d6bf526c6837021b7be91ae79986e3adc360f466f90f2d2f6493"),
    ("ta01", "SPT"): (1462, "1f6fe8dbe23c71731ff9f72166d72d270df5e061857c663f061f0a293676f0dd", "b1f2611b6847c5887e84b53c0e3de61b0bc63080431e1d637bd25ff97244a620"),
    ("ta01", "MOR"): (1438, "346a7bae72f77e545eed05b34243fd3961e2a9851c59ebc0fddcbcea24cedf29", "e859c63adf26407d17aff083d535f1aad567f8359e7d7b6ba2dd7cedf2b14652"),
    ("ta01", "MWR"): (1491, "171c37d7d676ea5826780db9c11dd9f45c7b76519ac0e7f2c1c73c21991c92cc", "85ff6d8ea0a17f4b461c533676e744583588f0f0d7b573f28266adf33b2c947f"),
    ("ta01", "LOR"): (1737, "db3e89d30853eaf6da2857a65ad77fec57ef0be767075df8fa2b7a35a72a9302", "a1d5a4706d9ccbd0e22bf0635e58375393ae5e2fa55b9f10e02e1c21f87963b3"),
}

# sha256 over trace_csv then schedule_csv of run_episode under make_policy of
# random_program(random.Random(seed)), for seeds 0-19 on ft06, ft10 and ta01 in
# turn: the episodes `prorl eval` runs, frozen before SimState dropped its
# start times and its duration multiset
RANDOM_PROGRAM_EPISODES = "f64fd6444487eaba092807e1518d60f05e52aa1f44222843ee96dd4eaf9f7f26"

# train(ft06, budget=200, seed=0): sha256 of serialize(program) and training_log_csv
TRAIN_GOLDEN = (
    "e6248ef177de79a58686bf0c9cb18ecdfaacac550bfe1a9e766154a56db6d100",
    "4eb4060b6b4ae713a0db41c28d234b05e26c1579572aa4f3de3a244f13e33028",
)
TRAIN_CSV_GOLDEN = "instance,method,makespan,gap_percent,seed,episodes\nft06,prorl,59,7.27,0,200\n"

# train(instance, budget=1000, seed=0): sha256 of serialize(program), of
# training_log_csv and of repr(state.history) (which carries the candidate
# dims and charges), then episodes_used
TRAIN_1000_GOLDEN = {
    "ft10": (
        "4370ddd6b450e328ea396998039cff8965e1ec1c2c21c04107a2aac366334b3b",
        "926494dfc99e172e2e35f9d13ffeff00f85df4f153509b52f47ca1cf15df3c25",
        "aa173db3dab3f6ab5a614148fdd741fe10b16daa57d3ce95f0a42c06f8d39393",
        1000,
    ),
    "ta01": (
        "e90e2fdb19650b9c184d00df9357cbbc8a6de0ea024d75f9c97a0b2a0aba63a6",
        "04b3fc86fa602eb3d1e4d8fa71540d8a86c5dee5af324c4581df1c7760ebd76e",
        "3cf7914214a6366a7e33fe6100eb6d1d717242c33d942b0333e9a9ac114e668b",
        1000,
    ),
}


# train(ft10, budget=300, seed=0): sha256 of serialize(program); its learned
# weights come from the acquisition step
FT10_TRAIN_300_PROGRAM = "96bbda3fb6c721ff8c4266ac58a805fb739e100376123ff12ae2a214d7a98831"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load(name: str):
    fmt = "taillard" if name.startswith("ta") else "standard"
    return load_instance_file(str(INSTANCE_DIR / f"{name}.txt"), fmt)


@pytest.mark.parametrize("name", ["ft06", "ft10", "ta01"])
def test_pdr_outputs_match_golden(name):
    instance = _load(name)
    for rule in Heuristic:
        result = run_pdr(instance, rule)
        got = (result.makespan, _sha(sim.trace_csv(result)), _sha(sim.schedule_csv(result, instance)))
        assert got == PDR_GOLDEN[(name, rule.value)], f"{name} {rule.value}"


def test_random_program_episodes_match_golden():
    digest = hashlib.sha256()
    for name in ("ft06", "ft10", "ta01"):
        instance = _load(name)
        for seed in range(20):
            result = sim.run_episode(instance, dsl.make_policy(dsl.random_program(random.Random(seed))))
            digest.update(sim.trace_csv(result).encode())
            digest.update(sim.schedule_csv(result, instance).encode())
    assert digest.hexdigest() == RANDOM_PROGRAM_EPISODES


def test_training_matches_golden():
    program, state = search.train(_load("ft06"), search.SearchConfig(episode_budget=200, seed=0))
    assert (_sha(dsl.serialize(program)), _sha(search.training_log_csv(state))) == TRAIN_GOLDEN


def test_train_command_files_match_golden(tmp_path, capsys):
    out, log, csv = tmp_path / "policy.json", tmp_path / "log.csv", tmp_path / "report.csv"
    code = main([
        "train", "--instance", str(INSTANCE_DIR / "ft06.txt"), "--budget", "200", "--seed", "0",
        "--bks", str(DATA_DIR / "bks.csv"), "--out", str(out), "--log", str(log), "--csv", str(csv),
    ])
    assert code == 0
    assert (_sha(out.read_text()), _sha(log.read_text())) == TRAIN_GOLDEN
    assert csv.read_text() == TRAIN_CSV_GOLDEN


# train(ft06, budget=1000, seed=s) for the four seeds the bench-ft06 benchmark
# trains; same fingerprints as TRAIN_1000_GOLDEN
FT06_TRAIN_1000_GOLDEN = {
    0: (
        "e6248ef177de79a58686bf0c9cb18ecdfaacac550bfe1a9e766154a56db6d100",
        "23999e36a5c61d998f24d62b0902cffe323a84274ef47de0861d1bc479ca4941",
        "ac3d23f668462a7e92d59ee674ef211bea4955eb8d48cec9fb89d9d742c59f4b",
        1000,
    ),
    1: (
        "0ef67b84115bf557e55f6deb38daac633da970f0cfc454c672e2d3035bceb96e",
        "a58e2fce24fa90d1b098c7e2218cb508e8487de7f89b62505becbb375f9c4d81",
        "1eea9da20c11ae73f54148456184808a8a1ba9e18be20439b6d46635c6b43ca8",
        1000,
    ),
    2: (
        "f028aba23bd077b3ad2818b857f1749e5c14fc583d077a3e460cfd4688c25ff4",
        "b66be1c7d820fe4461083ea4e0ffe63a076ee31e5f4e43f4580b75e9f04dfe0f",
        "bfd97dbbcfe0ce0626315994b3848ac8e1754c341fe42aa84e6d75ed698c6fca",
        1000,
    ),
    3: (
        "fa66998edaed9a2715afbfb4180648712ffa7338358d60815e74162bffc5327a",
        "d17c01ac0e90423bdb7f0b2c9aaaf559c9848b9fa5b5accbdedf6dfb9f605f21",
        "770784193e87cba5f350b3bcd2c70983fcae57f73c3a195411c39a171c56f248",
        1000,
    ),
}


# train(instance, budget=1000, seed): (state.distinct_episodes, state.trie_nodes),
# the episodes the trie had to simulate and the decisions it took in, forced
# ones included (a node holds a decision with a choice and the forced run
# before it)
TRIE_COUNTS_1000 = {
    ("ft06", 0): (161, 2699),
    ("ft06", 1): (93, 1541),
    ("ft06", 2): (5, 162),
    ("ft06", 3): (170, 2699),
    ("ft10", 0): (262, 15401),
    ("ta01", 0): (243, 33433),
}


def _training_fingerprint(name: str, seed: int):
    program, state = search.train(_load(name), search.SearchConfig(episode_budget=1000, seed=seed))
    fingerprint = (
        _sha(dsl.serialize(program)),
        _sha(search.training_log_csv(state)),
        _sha(repr(state.history)),
        state.episodes_used,
    )
    return fingerprint, (state.distinct_episodes, state.trie_nodes)


@pytest.mark.parametrize("name", sorted(TRAIN_1000_GOLDEN))
def test_budget_1000_training_matches_golden(name):
    fingerprint, trie_counts = _training_fingerprint(name, 0)
    assert fingerprint == TRAIN_1000_GOLDEN[name]
    assert trie_counts == TRIE_COUNTS_1000[(name, 0)]


@pytest.mark.parametrize("seed", sorted(FT06_TRAIN_1000_GOLDEN))
def test_ft06_budget_1000_training_matches_golden(seed):
    fingerprint, trie_counts = _training_fingerprint("ft06", seed)
    assert fingerprint == FT06_TRAIN_1000_GOLDEN[seed]
    assert trie_counts == TRIE_COUNTS_1000[("ft06", seed)]


def test_trained_weights_are_python_floats():
    # acquisition picks rows of a numpy candidate matrix; they must reach the
    # program as Python floats, with the serialized text unchanged
    program, _ = search.train(_load("ft10"), search.SearchConfig(episode_budget=300, seed=0))
    weights = get_params(program)
    assert len(weights) == 18
    assert all(type(w) is float for w in weights)
    assert _sha(dsl.serialize(program)) == FT10_TRAIN_300_PROGRAM


# sha256 of the CSV that `prorl bench` writes for the bench-ft06 benchmark job:
# ft06 alone, the five rules plus prorl at seeds 0-3, budget 1000
BENCH_FT06_CSV = "4fd05e9176872bd75b90c244afa6d5cdd42a4779614243b1b55b3db659d1fd4b"


def test_bench_command_csv_matches_golden(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "ft06.txt").write_text((INSTANCE_DIR / "ft06.txt").read_text())
    csv = tmp_path / "bench.csv"
    code = main([
        "bench", "--dir", str(inst_dir), "--methods", "fifo,spt,mor,mwr,lor,prorl",
        "--seeds", "0,1,2,3", "--budget", "1000",
        "--bks", str(DATA_DIR / "bks.csv"), "--csv", str(csv),
    ])
    assert code == 0
    assert _sha(csv.read_text()) == BENCH_FT06_CSV


# sha256 over serialize(program) of random_program(random.Random(seed),
# max_depth) and of each of 100 chained mutate(program, rng, max_depth) calls
# on that one random source, for max_depth 1-4 and seeds 0-9 in turn: the
# programs generation and mutation draw, frozen while a token budget still
# rode along with the depth budget
GENERATION_AND_MUTATION = "0da2017087c9f588fd17c7de5d1991b70c205effc04c4e34afe32ee656796735"


def test_generation_and_mutation_match_golden():
    digest = hashlib.sha256()
    for max_depth in range(1, dsl.MAX_DEPTH + 1):
        for seed in range(10):
            rng = random.Random(seed)
            program = dsl.random_program(rng, max_depth)
            digest.update(dsl.serialize(program).encode())
            for _ in range(100):
                program = dsl.mutate(program, rng, max_depth)
                digest.update(dsl.serialize(program).encode())
    assert digest.hexdigest() == GENERATION_AND_MUTATION
