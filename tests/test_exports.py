"""The package exports what its modules define, applies ``EHRGEN_THREADS``
on a plain import, runs without SciPy, and its modules import each other in
one direction."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ehrgen

PACKAGE_DIR = pathlib.Path(ehrgen.__file__).parent

EXPORTS = {
    "corpus": ["PatientRecord", "Cohort", "VisitVocab", "VocabEntry",
               "EncodedBatch", "visit_key", "build_visit_vocab",
               "replace_rare_visits", "encode_cohort", "save_cohort",
               "load_cohort"],
    "simulate": ["ToyCorpusSpec", "default_toy_spec", "simulate_toy_cohort",
                 "condition_codes", "analytic_group_unigram"],
    "latent": ["sample_prior_eva", "sample_prior_evac"],
    "encoders": ["DiagGaussian", "poe_combine", "encode_sequence",
                 "encode_conditions"],
    "decoder": ["DecoderConfig", "decode_logits", "ancestral_sample"],
    "model": ["TrainConfig", "TrainedModel"],
    "trainer": ["ElboReport", "TrainingDiverged", "psgld_step", "train"],
    "generator": ["GenerationRequest", "generate_cohort",
                  "generate_case_control", "condition_vector"],
    "evaluation": ["NgramStats", "AttackOutcome", "ngram_stats",
                   "pearson_marginal", "independent_bigram_baseline",
                   "avg_jaccard_counts", "unique_token_ratio",
                   "NextVisitPredictor", "train_next_visit_predictor",
                   "topk_recall", "presence_disclosure", "elbo_holdout",
                   "report"],
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def test_every_exported_name_resolves():
    """Each public name is its module's own object, re-exported."""
    wrong = [f"{module}.{name}" for module, names in EXPORTS.items()
             for name in names
             if getattr(ehrgen, name, None) is not getattr(
                 sys.modules[f"ehrgen.{module}"], name)]
    assert sum(map(len, EXPORTS.values())) == 48
    assert wrong == []


@pytest.mark.parametrize("given, expected", [
    ({}, dict.fromkeys(THREAD_VARS, "2")),
    ({"OPENBLAS_NUM_THREADS": "3"},
     {**dict.fromkeys(THREAD_VARS, "2"), "OPENBLAS_NUM_THREADS": "3"}),
])
def test_plain_import_applies_ehrgen_threads(given, expected):
    """``EHRGEN_THREADS`` sets each thread variable not already set, on a
    library import as on the command line."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(given, EHRGEN_THREADS="2",
               PYTHONPATH=str(PACKAGE_DIR.parent))
    code = "import json, os, ehrgen; print(json.dumps(dict(os.environ)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    seen = json.loads(out)
    assert {var: seen.get(var) for var in THREAD_VARS} == expected


NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any SciPy import now raises ImportError
import ehrgen as eg
real = eg.simulate_toy_cohort(eg.default_toy_spec(n_records=60), seed=1)
vocab = eg.build_visit_vocab(real, max_size=40)
real = eg.replace_rare_visits(real, vocab)
batch = eg.encode_cohort(real, vocab, t_max=8)
config = eg.TrainConfig(variant="evac", latent_dim=4, n_iters=2,
                        minibatch=16, burn_in=0, thin=1, reservoir_size=2)
model = eg.train(config, batch, vocab, condition_names=real.condition_names)
synth = eg.generate_cohort(model, eg.GenerationRequest(count=20, seed=0))
pred = eg.train_next_visit_predictor(real, epochs=1)
print(eg.topk_recall(pred, synth, 5), eg.elbo_holdout(model, real))
"""


def test_runs_without_scipy():
    """Training, generation and the metrics need NumPy only; SciPy is a
    test dependency."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    recall, elbo = map(float, run.stdout.split())
    assert 0.0 <= recall <= 1.0 and elbo < 0.0


def relative_imports():
    """Module name -> the package modules it imports, from the source."""
    modules = {path.stem for path in PACKAGE_DIR.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    targets.add(node.module)
                else:
                    # ``from . import x`` names a module, or a package export
                    targets |= {a.name if a.name in modules else "__init__"
                                for a in node.names}
        graph[name] = targets
    return graph


def reachable(graph, start):
    seen, todo = set(), [start]
    while todo:
        for target in graph[todo.pop()] - seen:
            seen.add(target)
            todo.append(target)
    return seen


def test_relative_imports_run_one_way():
    """No module reaches itself through the package's imports."""
    graph = relative_imports()
    assert [name for name in sorted(graph)
            if name in reachable(graph, name)] == []


def test_model_and_evaluation_do_not_import_the_trainer():
    """The model description and the metrics read no part of the update
    scheme."""
    graph = relative_imports()
    assert "trainer" not in reachable(graph, "model")
    assert "trainer" not in reachable(graph, "evaluation")


def test_no_function_level_relative_imports():
    """A package import inside a function hides a cycle."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}"
                          for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level]
    assert found == []
