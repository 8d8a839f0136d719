"""The package exports its names lazily: a module is imported on first use."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import similekit

from test_cli import FRESH_RUNS, fresh_inputs, refs, stories, world  # noqa: F401 (fixtures)

SRC = Path(__file__).resolve().parent.parent / "src"
OTHERS = ["cli", "corpus", "evaluation", "harvest", "story", "systems", "tagging"]


def loaded_after(statement: str, prefix: str = "similekit") -> list[str]:
    """The modules named prefix* a fresh interpreter holds after running statement."""
    code = (f"import sys\n{statement}\n"
            f"print(' '.join(sorted(m for m in sys.modules if m.startswith({prefix!r}))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    return out.stdout.splitlines()[-1].split()


def test_importing_lm_loads_only_what_lm_imports():
    loaded = loaded_after("import similekit.lm")
    assert loaded == ["similekit", "similekit.backends", "similekit.core", "similekit.lm"]
    assert not {f"similekit.{name}" for name in OTHERS} & set(loaded)


def test_importing_the_package_loads_no_module():
    assert loaded_after("import similekit; similekit.__version__") == ["similekit"]


def test_a_name_loads_its_module():
    assert loaded_after("from similekit import EmptyText") == [
        "similekit", "similekit.backends", "similekit.core", "similekit.lm"]


def scoresheet_run(tmp_path) -> str:
    """A statement that runs `evaluate --scoresheet` with a pairwise comparison and a report."""
    sheet = tmp_path / "scores.csv"
    sheet.write_text("item_id,system,rater_id,criterion,score\ni0,A,r0,OQ,4\ni0,B,r0,OQ,2\n",
                     encoding="utf-8")
    report = tmp_path / "report.json"
    return ("from similekit.cli import main\n"
            f"assert main(['evaluate', '--scoresheet', {str(sheet)!r}, '--pairwise', 'A,B', "
            f"'--criterion', 'OQ', '--report', {str(report)!r}]) == 0")


def evaluate_generated_run(tmp_path) -> str:
    """A statement that runs `evaluate --generated` on one batch file."""
    batch, refs = tmp_path / "scope.jsonl", tmp_path / "refs.jsonl"
    batch.write_text('{"literal": "He ran fast.", "output": "He ran like a deer.", '
                     '"seed": 1, "system": "scope"}\n', encoding="utf-8")
    refs.write_text('{"literal": "He ran fast.", "references": ["He ran like a hare."]}\n',
                    encoding="utf-8")
    return ("from similekit.cli import main\n"
            f"assert main(['evaluate', '--generated', {str(batch)!r}, '--refs', {str(refs)!r}]) "
            "== 0")


def test_a_scoresheet_run_loads_only_evaluation(tmp_path):
    """The command line imports only the modules a command runs: here no model or backend."""
    run = scoresheet_run(tmp_path)
    assert loaded_after(run) == [
        "similekit", "similekit.cli", "similekit.core", "similekit.evaluation"]
    assert loaded_after(run, prefix="subprocess") == []


def test_an_evaluate_generated_run_loads_no_model_or_backend(tmp_path):
    """Scoring batch files needs the batch and refs readers, not the generators."""
    run = evaluate_generated_run(tmp_path)
    loaded = loaded_after(run)
    assert not {"similekit.systems", "similekit.lm", "similekit.knowledge",
                "similekit.backends"} & set(loaded)
    assert loaded_after(run, prefix="subprocess") == []


# Modules that similekit imports only in the code that uses them.
LOADED_ON_USE = {"dataclasses", "inspect", "subprocess", "selectors", "hashlib", "configparser"}


def test_a_worker_request_loads_nothing_it_does_not_run():
    """A remote worker imports knowledge and lm for every request it answers."""
    loaded = set(loaded_after("import similekit.knowledge, similekit.lm", prefix=""))
    assert LOADED_ON_USE & loaded == set()


@pytest.mark.parametrize("run", [scoresheet_run, evaluate_generated_run],
                         ids=["scoresheet", "evaluate-generated"])
def test_an_evaluate_run_loads_no_dataclasses_or_configparser(tmp_path, run):
    loaded = set(loaded_after(run(tmp_path), prefix=""))
    assert {"dataclasses", "inspect", "configparser"} & loaded == set()


def test_a_config_file_is_read_with_configparser(tmp_path):
    """configparser is loaded by the run given --config, and the section is still read."""
    config = tmp_path / "run.ini"
    config.write_text("[evaluate]\ncriterion = OQ\n", encoding="utf-8")
    run = scoresheet_run(tmp_path).replace("'--criterion', 'OQ'", f"'--config', {str(config)!r}")
    assert "configparser" in loaded_after(run, prefix="configparser")


def test_build_corpus_and_train_load_no_pool(tmp_path):
    """The fan-out forks with os.fork and pipes: no multiprocessing, no concurrent.futures."""
    similes, edges = tmp_path / "similes.jsonl", tmp_path / "edges.tsv"
    similes.write_text("".join(f'{{"text": "It ran like a deer{i}."}}\n' for i in range(5)),
                       encoding="utf-8")
    edges.write_text("".join(f"deer{i}\tfast\t1.0\n" for i in range(5)), encoding="utf-8")
    pairs, model = tmp_path / "pairs.tsv", tmp_path / "model"
    run = ("from similekit import core\n"
           "from similekit.cli import main\n"
           "core.RUN_LENGTH = 2\n"
           "core.usable_cpus = lambda: 2\n"
           f"assert main(['build-corpus', '--in', {str(similes)!r}, '--knowledge', {str(edges)!r},"
           f" '--out', {str(pairs)!r}]) == 0\n"
           f"assert main(['train', '--pairs', {str(pairs)!r}, '--model-out', {str(model)!r},"
           " '--seed', '1']) == 0")
    for prefix in ("multiprocessing", "concurrent"):
        assert loaded_after(run, prefix=prefix) == []
    assert pairs.read_text(encoding="utf-8").count("\n") == 5


# How a run hashes its inputs: statements run before cli.main.  A large input goes
# to a forked child; without os.fork, or where the fork fails (the first one here,
# so a fan-out's later forks work), the manifest hashes it in the command's process.
HASHING = {
    "forked": "cli.FORK_HASHING_BYTES = 0\n",
    "in-process": "",
    "no-fork": "cli.FORK_HASHING_BYTES = 0\nimport os\ndel os.fork\n",
    "fork-fails": ("cli.FORK_HASHING_BYTES = 0\nimport os\nfork = os.fork\n"
                   "def fail_once():\n"
                   "    os.fork = fork\n"
                   "    raise OSError(11, 'Resource temporarily unavailable')\n"
                   "os.fork = fail_once\n"),
}


@pytest.mark.parametrize("run", ["harvest-comments", "build-corpus-reference", "train",
                                 "generate-scope", "generate-rtrvl", "evaluate-generated",
                                 "embellish-stories"])
@pytest.mark.parametrize("hashing", list(HASHING))
def test_a_command_never_loads_libcrypto(run, hashing, world, fresh_inputs, tmp_path):
    """hashlib's _hashlib maps OpenSSL's libcrypto, 3.6 MB of a command's peak: the
    built-in sha256 hashes small inputs, a child forked at the start large ones and the
    manifest those a child did not hash, and seeds come from the built-in sha256.  The
    manifest still holds each input's SHA-256, a model directory's through its
    model.json."""
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(arg) for arg in FRESH_RUNS[run](world, fresh_inputs, out)]
    run_it = f"from similekit import cli\n{HASHING[hashing]}assert cli.main({argv!r}) == 0"
    assert loaded_after(run_it, prefix="_hashlib") == []
    (manifest,) = out.glob("*.manifest.json")
    inputs = json.loads(manifest.read_text(encoding="utf-8"))["inputs"]
    assert inputs and inputs == {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs}
    if "--model" in argv:
        assert os.path.join(argv[argv.index("--model") + 1], "model.json") in inputs


@pytest.mark.parametrize("run", ["build-corpus-reference", "build-corpus-uniform",
                                 "generate-scope", "generate-meta_m", "generate-rtrvl"])
def test_build_corpus_and_generate_never_load_harvest(run, world, fresh_inputs, tmp_path):
    """The readers of harvest's files live in core: a process that runs these commands
    compiles and holds none of harvest.py."""
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(arg) for arg in FRESH_RUNS[run](world, fresh_inputs, out)]
    loaded = loaded_after(f"from similekit import cli\nassert cli.main({argv!r}) == 0")
    assert "similekit.cli" in loaded and "similekit.harvest" not in loaded


def test_harvest_names_the_readers_of_core():
    from similekit import core, harvest

    for name in ("read_literals_jsonl", "read_similes_jsonl", "simile_record"):
        assert getattr(harvest, name) is getattr(core, name)


@pytest.mark.parametrize("name", similekit.__all__)
def test_every_export_is_its_module_object(name):
    module = importlib.import_module(f"similekit.{similekit._MODULE_OF[name]}")
    assert getattr(similekit, name) is getattr(module, name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from similekit import *", namespace)
    assert set(similekit.__all__) <= set(namespace)
    assert set(similekit.__all__) | {"__version__"} <= set(dir(similekit))
    assert len(set(similekit.__all__)) == len(similekit.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        similekit.no_such_name
    assert not hasattr(similekit, "no_such_name")
    with pytest.raises(ImportError):
        exec("from similekit import no_such_name", {})


def test_submodules_import_as_before():
    namespace = {}
    exec("from similekit import corpus, evaluation, systems", namespace)
    assert namespace["corpus"] is importlib.import_module("similekit.corpus")
