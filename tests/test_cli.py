"""Command-line workflow: exit codes, manifest and CSV schemas, idempotent
reruns, and the cross-command averaging equivalence."""

import json
import os
import platform
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import distilab
from distilab import cli
from distilab.autodiff import DomainError
from distilab.cli import METRIC_COLUMNS, main
from distilab.distill import one_to_one_loss, train_student
from distilab.metrics import batched_logits, diversity, entropy_histogram, softmax_np
from distilab.nets import (ModelSpec, build_be, build_plain, checkpoint_load,
                           checkpoint_save, stack)
from distilab.perturb import build_perturbation, default_gamma
from distilab.seeding import rng_stream

TINY = {
    "data": {"kind": "mixture", "num_classes": 3, "dim": 2, "n_per_class": 40,
             "spread": 0.6, "seed": 11},
    "model": {"hidden": [16, 16]},
    "optim": {"epochs": 6, "warmup_epochs": 1, "batch_size": 32},
    "distill": {"tau": 4.0, "alpha": 1.0, "num_teachers": 2},
    "method": "latentbe",
    "seeds": [0],
}


def write_config(tmp_path, **overrides):
    doc = json.loads(json.dumps(TINY))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def write_data_spec(tmp_path, **data):
    """TINY's data spec with the given keys replaced."""
    path = tmp_path / "data.json"
    path.write_text(json.dumps({**TINY["data"], **data}))
    return path


def _set_first_value(rec, token):
    """Replace the first value of a checkpoint tensor record by token."""
    rec["values"] = " ".join([token, *rec["values"].split()[1:]])


def write_csv_spec(tmp_path, **spec):
    path = tmp_path / "csv.json"
    path.write_text(json.dumps({"kind": "csv", "path": str(tmp_path / "test.csv"), **spec}))
    return path


def write_net(tmp_path, members=0):
    """An untrained checkpoint for TINY's task: plain with members 0, else a
    factored net of that many members."""
    spec, rng = ModelSpec(2, 3, (16, 16)), rng_stream(0, "init")
    path = tmp_path / ("student_be.json" if members else "teacher0.json")
    checkpoint_save(build_be(spec, rng, members=members) if members else build_plain(spec, rng),
                    path)
    return path


@pytest.fixture()
def trained(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "teachers"
    assert main(["train-teachers", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def mixed_teachers(tmp_path, teachers, head="softmax"):
    """A copy of the seed0 teachers whose teacher1.json has hidden widths [6, 6]."""
    mixed = tmp_path / "mixed"
    (mixed / "seed0").mkdir(parents=True)
    (mixed / "seed0" / "teacher0.json").write_bytes(
        (teachers / "seed0" / "teacher0.json").read_bytes())
    odd = mixed / "seed0" / "teacher1.json"
    checkpoint_save(build_plain(ModelSpec(2, 3, (6, 6)), rng_stream(1, "init"), head=head), odd)
    return mixed, odd


class TestTrainTeachers:
    def test_writes_checkpoints_and_manifest(self, trained, tmp_path):
        _, out = trained
        seed_dir = out / "seed0"
        assert (seed_dir / "teacher0.json").exists()
        assert (seed_dir / "teacher1.json").exists()
        manifest = json.loads((seed_dir / "manifest.json").read_text())
        assert manifest["command"] == "train-teachers"
        assert set(manifest["data_digests"]) == {"train", "val", "test"}

    def test_single_teacher_run(self, tmp_path):
        cfg = write_config(tmp_path, distill={"num_teachers": 1}, method="kd")
        out = tmp_path / "t1"
        assert main(["train-teachers", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "seed0" / "teacher0.json").exists()
        assert not (out / "seed0" / "teacher1.json").exists()

    def test_rerun_is_byte_identical(self, trained):
        cfg, out = trained
        before = (out / "seed0" / "teacher0.json").read_bytes()
        assert main(["train-teachers", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "seed0" / "teacher0.json").read_bytes() == before

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train-teachers", "--config", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_invalid_method_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, method="alchemy")
        assert main(["train-teachers", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2


class TestDistill:
    def test_latentbe_emits_both_checkpoints_and_trace(self, trained, tmp_path):
        cfg, teachers = trained
        out = tmp_path / "latent"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out)]) == 0
        seed_dir = out / "seed0"
        assert (seed_dir / "student.json").exists()
        assert (seed_dir / "student_be.json").exists()
        trace = (seed_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss,div_teachers,div_student"
        assert len(trace) > 1

    # 84 training rows in batches of 32: 3 steps per epoch, so 6 and 22 epochs
    # end inside the second and the fifth block of steps whose rows are
    # formed in one pass
    @pytest.mark.parametrize("perturbation, epochs", [("none", 6), ("tdiv_sdiv", 6),
                                                      ("tdiv_sdiv", 22)])
    def test_trace_replays_every_step_bit_for_bit(self, trained, tmp_path, perturbation,
                                                  epochs):
        cfg, teachers = trained
        cfg = write_config(tmp_path, distill={"perturbation": perturbation},
                           optim={"epochs": epochs})
        out = tmp_path / "latent"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out)]) == 0
        lines = (out / "seed0" / "trace.csv").read_text().splitlines()

        run = cli.load_run_config(cfg)
        train, _, _ = cli.build_datasets(run.data)
        dcfg = replace(run.distill, optim=replace(run.optim, seed=0))
        teacher_net = cli._load_teachers(teachers, 0, 2, train)
        # the student before each step: the all-ones init, then each update's result
        before = [build_be(run.model_spec, rng_stream(0, "init"), "ones", members=2)]
        train_student(teacher_net, run.model_spec, train, dcfg,
                      step_hook=lambda step, student: before.append(student[range(2)]))

        shuffle = rng_stream(0, "batch-shuffle")
        noise_rng = rng_stream(0, "guidance-vectors")
        index_rng = rng_stream(0, "pair-sampling")
        gamma = default_gamma(train.x)
        expected = ["step,loss,div_teachers,div_student"]
        for _ in range(dcfg.optim.epochs):
            order = shuffle.permutation(len(train))
            for start in range(0, len(train), dcfg.optim.batch_size):
                idx = order[start:start + dcfg.optim.batch_size]
                student = before[len(expected) - 1]
                x = train.x[idx]
                if perturbation != "none":
                    x = x + build_perturbation(perturbation, teacher_net, student, x, gamma,
                                               dcfg.tau, noise_rng, index_rng).epsilon
                loss = one_to_one_loss(batched_logits(teacher_net, x), student.forward(x),
                                       dcfg.tau)[0]
                expected.append(",".join(map(cli._fmt, (len(expected), loss,
                                                        diversity(teacher_net, x),
                                                        diversity(student, x)))))
        assert len(expected) == 1 + 3 * epochs == len(before)
        assert lines == expected
        # latentbe's factors start at all ones: the members are one net at step 1
        assert lines[1].split(",")[3] == "0"
        assert float(lines[2].split(",")[3]) > 0.0

    def test_kd_manifest_records_default_temperature(self, trained, tmp_path):
        cfg_path = write_config(tmp_path, method="kd")
        _, teachers = trained
        out = tmp_path / "kd"
        assert main(["distill", "--config", str(cfg_path), "--teachers",
                     str(teachers), "--out", str(out)]) == 0
        manifest = json.loads((out / "seed0" / "manifest.json").read_text())
        assert manifest["config"]["distill"]["tau"] == 4.0
        assert manifest["config"]["distill"]["alpha"] == 1.0

    def test_be_plus_average_equals_latentbe_with_zero_decay(self, trained, tmp_path):
        _, teachers = trained
        cfg_be = write_config(tmp_path, method="be", student_init="ones",
                              distill={"num_teachers": 2, "rank_decay": 0.0})
        out_be = tmp_path / "be"
        assert main(["distill", "--config", str(cfg_be), "--teachers",
                     str(teachers), "--out", str(out_be)]) == 0
        avg_path = tmp_path / "be_avg.json"
        assert main(["average", "--model", str(out_be / "seed0" / "student_be.json"),
                     "--out", str(avg_path)]) == 0

        cfg_latent = write_config(tmp_path, method="latentbe",
                                  distill={"num_teachers": 2, "rank_decay": 0.0})
        out_latent = tmp_path / "latent0"
        assert main(["distill", "--config", str(cfg_latent), "--teachers",
                     str(teachers), "--out", str(out_latent)]) == 0
        assert avg_path.read_bytes() == (out_latent / "seed0" / "student.json").read_bytes()

    def test_teacher_count_mismatch_exits_2(self, trained, tmp_path):
        cfg3 = write_config(tmp_path, distill={"num_teachers": 3})
        _, teachers = trained
        assert main(["distill", "--config", str(cfg3), "--teachers", str(teachers),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("method, data", [
        ("kd", {"num_classes": 4}), ("latentbe", {"num_classes": 4}), ("latentbe", {"dim": 3}),
    ])
    def test_teachers_that_do_not_fit_the_data_exit_2(self, trained, tmp_path, capsys,
                                                      method, data):
        _, teachers = trained
        cfg = write_config(tmp_path, method=method, data=data)
        out = tmp_path / "student"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out)]) == 2
        want = {**TINY["data"], **data}
        assert capsys.readouterr().err == (
            f"error: {teachers / 'seed0' / 'teacher0.json'}: checkpoint has in_dim 2 and "
            f"3 classes, the data has in_dim {want['dim']} and {want['num_classes']} classes\n")
        assert not (out / "seed0").exists()

    def test_teachers_that_disagree_exit_2_naming_the_file(self, trained, tmp_path, capsys):
        # a [6, 6] teacher1.json beside the [16, 16] teacher0.json
        cfg, teachers = trained
        mixed, odd = mixed_teachers(tmp_path, teachers)
        out = tmp_path / "student"
        assert main(["distill", "--config", str(cfg), "--teachers", str(mixed),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {odd}: hidden widths [6, 6] and head 'softmax' differ from "
            f"teacher0.json's [16, 16] and 'softmax'\n")
        assert not out.exists()

    def test_student_hidden_widths_may_differ_from_the_teachers(self, trained, tmp_path):
        _, teachers = trained
        for perturbation in ("none", "tdiv_sdiv"):
            cfg = write_config(tmp_path, model={"hidden": [8]},
                               distill={"perturbation": perturbation})
            out = tmp_path / f"narrow_{perturbation}"
            assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                         "--out", str(out)]) == 0
            assert checkpoint_load(out / "seed0" / "student.json").spec.hidden == (8,)
        assert main(["perturb-diag", "--teachers", str(teachers),
                     "--student", str(out / "seed0" / "student_be.json"),
                     "--data", str(write_data_spec(tmp_path)), "--kind", "tdiv_sdiv",
                     "--out", str(tmp_path / "diag.csv")]) == 0

    def test_proxy_end2_method_runs(self, trained, tmp_path):
        cfg = write_config(tmp_path, method="proxy_end2")
        _, teachers = trained
        out = tmp_path / "proxy"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "seed0" / "student.json").read_text())
        assert doc["head"] == "dirichlet"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts page faults of glibc's allocator")
    def test_repeated_distill_reuses_heap_memory(self, tmp_path):
        import resource

        # An M=2 student at batch 128 and width 64 makes (2, 128, 64) float64
        # temporaries of exactly glibc's default 128 KiB mmap threshold; with
        # glibc's dynamic thresholds a repeat took about 3,000 minor faults.
        cfg = write_config(tmp_path, data={"n_per_class": 200},
                           model={"hidden": [64, 64]},
                           optim={"epochs": 2, "warmup_epochs": 1, "batch_size": 128},
                           distill={"perturbation": "tdiv_sdiv"})
        teachers = tmp_path / "teachers"
        assert main(["train-teachers", "--config", str(cfg), "--out", str(teachers)]) == 0
        argv = ["distill", "--config", str(cfg), "--teachers", str(teachers),
                "--out", str(tmp_path / "student")]
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


class TestEvaluate:
    def test_metrics_row_schema(self, trained, tmp_path):
        _, teachers = trained
        data = write_data_spec(tmp_path)
        out = tmp_path / "m.csv"
        assert main(["evaluate", "--model", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(data), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(METRIC_COLUMNS)
        cells = lines[1].split(",")
        assert len(cells) == len(METRIC_COLUMNS)
        tau_star = float(cells[METRIC_COLUMNS.index("tau_star")])
        assert tau_star > 0

    def test_corrupt_out_of_range_exits_2(self, trained, tmp_path):
        _, teachers = trained
        data = write_data_spec(tmp_path)
        assert main(["evaluate", "--model", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(data), "--corrupt", "6",
                     "--out", str(tmp_path / "m.csv")]) == 2

    def test_ood_flag_writes_entropy_histograms(self, trained, tmp_path):
        _, teachers = trained
        data = write_data_spec(tmp_path)
        ood = tmp_path / "ood.json"
        ood.write_text(json.dumps({"shift": 6.0, "seed": 3}))
        out = tmp_path / "m.csv"
        assert main(["evaluate", "--model", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(data), "--ood", str(ood), "--out", str(out)]) == 0
        hist = Path(str(out) + ".entropy.csv").read_text().splitlines()
        assert hist[0] == "tag,bin_lo,bin_hi,count"
        tags = {line.split(",")[0] for line in hist[1:]}
        assert tags == {"in", "ood"}
        # the "in" rows bin the evaluated split's own mean probabilities
        _, _, test = cli.build_datasets(TINY["data"])
        model = checkpoint_load(teachers / "seed0" / "teacher0.json")
        expected = entropy_histogram(softmax_np(batched_logits(model, test.x)[0]))
        counts = [int(line.split(",")[3]) for line in hist[1:] if line.startswith("in,")]
        assert counts == expected.counts.tolist()

    def test_factored_checkpoint_reports_mean_div(self, trained, tmp_path):
        cfg, teachers = trained
        out_l = tmp_path / "latent"
        main(["distill", "--config", str(cfg), "--teachers", str(teachers),
              "--out", str(out_l)])
        data = write_data_spec(tmp_path)
        out = tmp_path / "m.csv"
        assert main(["evaluate", "--model", str(out_l / "seed0" / "student_be.json"),
                     "--data", str(data), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[METRIC_COLUMNS.index("mean_div")] != ""

    def test_non_finite_csv_feature_exits_2(self, trained, tmp_path, capsys):
        _, teachers = trained
        (tmp_path / "test.csv").write_text("x0,x1,y\n0.5,1.0,0\nnan,0.2,1\n1.0,0.3,2\n")
        out = tmp_path / "m.csv"
        assert main(["evaluate", "--model", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(write_csv_spec(tmp_path)), "--out", str(out)]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_exits_2(self, tmp_path):
        data = write_data_spec(tmp_path)
        assert main(["evaluate", "--model", str(tmp_path / "none.json"),
                     "--data", str(data), "--out", str(tmp_path / "m.csv")]) == 2

    def test_csv_data_that_does_not_fit_exits_2(self, tmp_path, capsys):
        model, out = write_net(tmp_path), tmp_path / "m.csv"
        (tmp_path / "test.csv").write_text("x0,x1,y\n0.5,1.0,0\n1.0,0.3,2\n")
        assert main(["evaluate", "--model", str(model), "--out", str(out),
                     "--data", str(write_csv_spec(tmp_path, num_classes=4))]) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: checkpoint has in_dim 2 and 3 classes, "
            f"the data has in_dim 2 and 4 classes\n")
        assert not out.exists()

    def test_csv_label_beyond_the_models_classes_names_its_line(self, tmp_path, capsys):
        # without num_classes the CSV takes the checkpoint's three classes
        model, out = write_net(tmp_path), tmp_path / "m.csv"
        (tmp_path / "test.csv").write_text("x0,x1,y\n0.5,1.0,0\n0.1,0.2,3\n1.0,0.3,2\n")
        assert main(["evaluate", "--model", str(model), "--data", str(write_csv_spec(tmp_path)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'test.csv'}: line 3: label 3 >= K=3\n")
        assert not out.exists()

    def test_rerun_writes_byte_identical_csv(self, trained, tmp_path):
        _, teachers = trained
        data = write_data_spec(tmp_path)
        out = tmp_path / "m.csv"
        model = str(teachers / "seed0" / "teacher0.json")
        assert main(["evaluate", "--model", model, "--data", str(data),
                     "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["evaluate", "--model", model, "--data", str(data),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == first



def run_fresh(argv):
    """One distilab command in a new interpreter."""
    src = str(Path(distilab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "distilab.cli", *argv], env=env,
                   check=True, capture_output=True, timeout=300)


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_in_one_process_match_fresh_processes(self, trained, tmp_path):
        # evaluate --corrupt --ood, then a plain evaluate, then distill, then
        # evaluate: no flag of one call may reach the next
        cfg, teachers = trained
        data, ood = write_data_spec(tmp_path), tmp_path / "ood.json"
        ood.write_text(json.dumps({"shift": 6.0, "seed": 3}))
        teacher = str(teachers / "seed0" / "teacher0.json")

        def commands(out):
            return [["evaluate", "--model", teacher, "--data", str(data), "--corrupt", "3",
                     "--seed", "4", "--ood", str(ood), "--split", "val",
                     "--out", str(out / "corrupt.csv")],
                    ["evaluate", "--model", teacher, "--data", str(data),
                     "--out", str(out / "plain.csv")],
                    ["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out / "latent")],
                    ["evaluate", "--model", str(out / "latent" / "seed0" / "student.json"),
                     "--data", str(data), "--out", str(out / "student.csv")]]

        for argv in commands(tmp_path / "one"):
            assert main(argv) == 0
        for argv in commands(tmp_path / "fresh"):
            run_fresh(argv)
        files = {}
        for side in ("one", "fresh"):
            root = tmp_path / side
            files[side] = {str(f.relative_to(root)): f.read_bytes()
                           for f in sorted(root.rglob("*")) if f.is_file()}
        assert {"corrupt.csv", "corrupt.csv.entropy.csv", "plain.csv", "student.csv",
                "latent/seed0/student_be.json"} <= set(files["one"])
        assert files["one"] == files["fresh"]
        assert files["one"]["plain.csv"].decode().splitlines()[1].split(",")[1] == "test"


class TestDeterminism:
    def test_checkpoints_identical_at_any_blas_thread_count(self, tmp_path):
        cfg = write_config(tmp_path, optim={"epochs": 3, "warmup_epochs": 1,
                                            "batch_size": 32},
                           distill={"num_teachers": 2, "perturbation": "tdiv_sdiv"})
        src = str(Path(distilab.__file__).resolve().parent.parent)
        runs = []
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}"
            for argv in (["train-teachers", "--config", str(cfg), "--out", str(out / "t")],
                         ["distill", "--config", str(cfg), "--teachers", str(out / "t"),
                          "--out", str(out / "s")]):
                subprocess.run([sys.executable, "-m", "distilab.cli", *argv], env=env,
                               check=True, capture_output=True, timeout=300)
            runs.append({str(f.relative_to(out)): f.read_bytes()
                         for f in sorted(out.rglob("*.json"))})
        assert "s/seed0/student_be.json" in runs[0] and "t/seed0/teacher1.json" in runs[0]
        assert runs[0] == runs[1] == runs[2]


class TestExitCodes:
    def test_numerical_failure_exits_3(self, trained, tmp_path):
        # an absurd learning rate reliably produces a non-finite loss
        cfg = write_config(tmp_path, optim={"base_lr": 1e9, "epochs": 6,
                                            "warmup_epochs": 1, "batch_size": 32})
        out = tmp_path / "boom"
        assert main(["train-teachers", "--config", str(cfg),
                     "--out", str(out)]) == 3
        # one diverging member stops every teacher, before any is saved
        assert not list(out.glob("**/teacher*.json"))

    def test_domain_error_exits_3(self, tmp_path, monkeypatch):
        def fails(args):
            raise DomainError("digamma undefined at non-positive integers")

        monkeypatch.setattr(cli, "cmd_average", fails)
        assert main(["average", "--model", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "a.json")]) == 3


class TestMalformedInput:
    """Malformed files from outside exit 2 with a message, not a traceback."""

    @pytest.mark.parametrize("drop", ["kind", "spec", "tensors"])
    def test_checkpoint_missing_top_level_key_exits_2(self, trained, tmp_path, capsys,
                                                      drop):
        _, teachers = trained
        doc = json.loads((teachers / "seed0" / "teacher0.json").read_text())
        del doc[drop]
        model = tmp_path / "broken.json"
        model.write_text(json.dumps(doc))
        assert main(["average", "--model", str(model), "--out", str(tmp_path / "a.json")]) == 2
        assert f"missing key '{drop}'" in capsys.readouterr().err

    @pytest.mark.parametrize("drop", ["shape", "values"])
    def test_checkpoint_tensor_without_field_exits_2(self, trained, tmp_path, capsys, drop):
        _, teachers = trained
        doc = json.loads((teachers / "seed0" / "teacher0.json").read_text())
        del doc["tensors"]["layer0.W"][drop]
        model = tmp_path / "broken.json"
        model.write_text(json.dumps(doc))
        assert main(["evaluate", "--model", str(model), "--data", str(write_data_spec(tmp_path)),
                     "--out", str(tmp_path / "m.csv")]) == 2
        assert f"tensor 'layer0.W' has no '{drop}' key" in capsys.readouterr().err

    @pytest.mark.parametrize("factored, edit", [
        (False, lambda doc: doc["spec"].update(in_dim=None)),
        (False, lambda doc: doc["spec"].update(hidden=4)),
        (False, lambda doc: doc.update(spec=[1])),
        (False, lambda doc: doc["tensors"].update({"layer0.W": "x"})),
        (False, lambda doc: doc["tensors"]["layer0.W"].update(values=5)),
        (False, lambda doc: doc["tensors"]["layer0.W"].update(shape="x")),
        # a bool is not a member count: true once loaded as one member
        (True, lambda doc: doc.update(M=True)),
        (False, lambda doc: doc.update(head=5)),
        (False, lambda doc: doc.update(kind="tree")),
        (False, lambda doc: doc.update(format_version=2)),
        (False, lambda doc: doc["tensors"].pop("layer0.b")),
        (True, lambda doc: doc["tensors"].pop("layer1.r1")),
        (False, lambda doc: doc["tensors"]["layer0.W"].update(shape=[2, 16])),
        (False, lambda doc: doc["tensors"]["layer0.W"].update(shape=[16, 3])),
        (False, lambda doc: _set_first_value(doc["tensors"]["layer0.W"], "nan")),
        (True, lambda doc: _set_first_value(doc["tensors"]["layer1.s0"], "1e309")),
    ], ids=["null-in-dim", "int-hidden", "list-spec", "string-tensor", "number-values",
            "string-shape", "bool-M", "int-head", "unknown-kind", "version-2",
            "missing-tensor", "missing-factor", "transposed-shape", "value-count",
            "nan-value", "overflowing-value"])
    def test_malformed_checkpoint_exits_2_naming_the_file(self, tmp_path, capsys, factored,
                                                         edit):
        spec = ModelSpec(2, 3, (16, 16))
        net = (build_be(spec, rng_stream(0, "init"), members=2) if factored
               else build_plain(spec, rng_stream(0, "init")))
        model = tmp_path / "broken.json"
        checkpoint_save(net, model)
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        assert main(["evaluate", "--model", str(model), "--data", str(write_data_spec(tmp_path)),
                     "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {model}: ")

    @pytest.mark.parametrize("section", ["data", "model", "optim", "distill"])
    def test_run_config_section_not_an_object_exits_2(self, tmp_path, capsys, section):
        cfg = write_config(tmp_path, **{section: [1, 2, 3]})
        assert main(["train-teachers", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"{section} must be a JSON object" in capsys.readouterr().err

    def test_checkpoint_not_an_object_exits_2(self, tmp_path, capsys):
        model = tmp_path / "list.json"
        model.write_text("[1, 2]")
        assert main(["average", "--model", str(model), "--out", str(tmp_path / "a.json")]) == 2
        assert "a checkpoint must be a JSON object" in capsys.readouterr().err

    def test_csv_data_spec_without_path_exits_2(self, trained, tmp_path, capsys):
        _, teachers = trained
        spec = tmp_path / "csv.json"
        spec.write_text(json.dumps({"kind": "csv"}))
        assert main(["evaluate", "--model", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(spec), "--out", str(tmp_path / "m.csv")]) == 2
        assert "missing required key 'path'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, doc, message", [
        ("--data", {"kind": "csv", "path": "test.csv", "num_classes": "3"},
         "csv data spec: num_classes must be an integer, got '3'"),
        ("--ood", {"shift": 6.0, "seed": 2.5}, "ood spec: seed must be an integer, got 2.5"),
        ("--ood", {"shift": "6"}, "ood spec: shift must be positive and finite, got '6'"),
    ])
    def test_evaluate_spec_number_of_wrong_type_exits_2(self, trained, tmp_path, capsys,
                                                        flag, doc, message):
        _, teachers = trained
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        files = {"--data": str(write_data_spec(tmp_path)), flag: str(spec)}
        assert main(["evaluate", "--model", str(teachers / "seed0" / "teacher0.json"),
                     *(arg for item in files.items() for arg in item),
                     "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unplaceable_ood_set_exits_2_naming_the_spec_before_any_output(self, tmp_path,
                                                                           capsys):
        # a shift this small cannot clear the class means
        model = tmp_path / "plain.json"
        checkpoint_save(build_plain(ModelSpec(2, 3, (16, 16)), rng_stream(0, "init")), model)
        ood = tmp_path / "ood.json"
        ood.write_text(json.dumps({"shift": 0.01, "seed": 0}))
        out = tmp_path / "m.csv"
        assert main(["evaluate", "--model", str(model), "--data", str(write_data_spec(tmp_path)),
                     "--ood", str(ood), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {ood}: could not place OOD cluster away from class means\n"
        assert not out.exists() and not list(tmp_path.glob("m.csv*"))

    def test_bad_ood_spec_exits_2_before_any_output(self, trained, tmp_path, capsys):
        _, teachers = trained
        ood = tmp_path / "ood.json"
        ood.write_text(json.dumps({"shift": -1.0}))
        out = tmp_path / "m.csv"
        assert main(["evaluate", "--model", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(write_data_spec(tmp_path)), "--ood", str(ood),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: ood spec: shift must be positive and finite, got -1.0\n"
        assert not out.exists() and not list(tmp_path.glob("m.csv*"))

    @pytest.mark.parametrize("command", ["evaluate", "line-scan", "perturb-diag"])
    def test_data_spec_errors_name_the_file(self, trained, tmp_path, capsys, command):
        _, teachers = trained
        spec = tmp_path / "data.json"
        spec.write_text(json.dumps({**TINY["data"], "dim": 2.5}))
        model = str(teachers / "seed0" / "teacher0.json")
        extra = {"evaluate": ["--model", model],
                 "line-scan": ["--model", model],
                 "perturb-diag": ["--teachers", str(teachers), "--student", model,
                                  "--kind", "tdiv"]}[command]
        assert main([command, *extra, "--data", str(spec),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == \
            f"error: {spec}: data: dim must be an integer, got 2.5\n"

    @pytest.mark.parametrize("num_classes", [2, 4])
    @pytest.mark.parametrize("command", ["evaluate", "line-scan"])
    def test_checkpoint_that_does_not_fit_the_data_exits_2(self, tmp_path, capsys, command,
                                                            num_classes):
        # a two-member student of a 3-class task, which both commands take
        model, out = write_net(tmp_path, members=2), tmp_path / "out.csv"
        assert main([command, "--model", str(model), "--out", str(out),
                     "--data", str(write_data_spec(tmp_path, num_classes=num_classes))]) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: checkpoint has in_dim 2 and 3 classes, "
            f"the data has in_dim 2 and {num_classes} classes\n")
        assert not out.exists()

    def test_data_spec_not_an_object_exits_2(self, trained, tmp_path, capsys):
        _, teachers = trained
        spec = tmp_path / "list.json"
        spec.write_text("[1, 2]")
        assert main(["evaluate", "--model", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(spec), "--out", str(tmp_path / "m.csv")]) == 2
        assert "data spec must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"method": "alchemy"}, "unknown method 'alchemy'"),
        ({"method": "be", "student_init": "gaussian"}, "unknown student_init 'gaussian'"),
        ({"method": "latentbe", "distill": {"num_teachers": 1}},
         "factored students need num_teachers >= 2"),
        ({"method": "kd", "distill": {"perturbation": "tdiv_sdiv"}},
         "tdiv_sdiv perturbation requires a factored student"),
    ])
    def test_method_rules_exit_2_naming_the_file(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, **doc)
        assert main(["train-teachers", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"error: {cfg}: {message}\n" == capsys.readouterr().err

    def test_infeasible_aekd_c_exits_2_before_any_output(self, trained, tmp_path, capsys):
        _, teachers = trained
        cfg = write_config(tmp_path, method="aekd", aekd_c=0.2)
        out = tmp_path / "aekd"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out)]) == 2
        assert (f"error: {cfg}: aekd_c must lie in [1/M, 1] for M=2 teachers, got 0.2\n"
                == capsys.readouterr().err)
        assert not (out / "seed0").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        (None, "seeds", 5, "seeds must be a non-empty list of integers, got 5"),
        (None, "seeds", [2.5], "seeds must be a non-empty list of integers, got [2.5]"),
        (None, "seeds", [], "seeds must be a non-empty list of integers, got []"),
        ("model", "hidden", [0], "hidden widths must be integers >= 1, got [0]"),
        ("model", "hidden", [8.7], "hidden widths must be integers >= 1, got [8.7]"),
        ("model", "hidden", 64, "hidden widths must be a list, got 64"),
        ("model", "hidden", "64", "hidden widths must be a list, got '64'"),
        ("model", "hidden", None, "hidden widths must be a list, got None"),
        ("optim", "epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("optim", "epochs", True, "epochs must be an integer, got True"),
        ("distill", "num_teachers", 2.5, "num_teachers must be an integer, got 2.5"),
        ("data", "dim", 2.5, "data: dim must be an integer, got 2.5"),
        ("data", "seed", 2.5, "data: seed must be an integer, got 2.5"),
        ("data", "n_per_class", "20", "data: n_per_class must be an integer, got '20'"),
        ("data", "spread", float("nan"), "data: spread must be positive and finite, got nan"),
        ("data", "spread", float("inf"), "data: spread must be positive and finite, got inf"),
        ("optim", "seed", 1, "optim.seed is not read; the run seeds are 'seeds'"),
        (None, "methd", "latentbe", "unknown key 'methd'"),
        ("model", "depth", 3, "unknown key 'model.depth'"),
    ])
    def test_bad_count_exits_2_before_any_output(self, tmp_path, capsys, section, key, value,
                                                 message):
        cfg = write_config(tmp_path, **({key: value} if section is None
                                        else {section: {key: value}}))
        out = tmp_path / "teachers"
        assert main(["train-teachers", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("distill", "tau", True), ("distill", "alpha", "1.0"), ("distill", "rank_decay", False),
        ("distill", "gamma", "0.1"), (None, "aekd_c", "0.6"), (None, "aekd_c", True),
        ("optim", "base_lr", True), ("optim", "momentum", "0.9"),
        ("optim", "weight_decay", False),
    ])
    def test_real_config_number_of_wrong_type_exits_2(self, tmp_path, capsys, section, key,
                                                      value):
        cfg = write_config(tmp_path, **({key: value} if section is None
                                        else {section: {key: value}}))
        out = tmp_path / "teachers"
        assert main(["train-teachers", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}: {key} must be a real number, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("distill", "rank_decay", "nan"), ("distill", "tau", "nan"),
        ("distill", "tau", "inf"), ("distill", "gamma", "nan"),
        ("distill", "gamma", "inf"), ("optim", "base_lr", "nan"),
        ("optim", "weight_decay", "nan"),
    ])
    def test_non_finite_config_number_exits_2(self, trained, tmp_path, capsys,
                                              section, key, value):
        _, teachers = trained
        # json writes and reads these as the non-standard NaN / Infinity tokens
        cfg = write_config(tmp_path, **{section: {key: float(value)}})
        out = tmp_path / "student"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {key} must ")
        assert not (out / "seed0").exists()


class TestLineScan:
    def test_scan_csv_contains_anchor_rows(self, trained, tmp_path):
        cfg, teachers = trained
        out_l = tmp_path / "latent"
        main(["distill", "--config", str(cfg), "--teachers", str(teachers),
              "--out", str(out_l)])
        data = write_data_spec(tmp_path)
        out = tmp_path / "scan.csv"
        assert main(["line-scan", "--model", str(out_l / "seed0" / "student_be.json"),
                     "--data", str(data), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,train_err,test_err,test_nll"
        ts = {float(line.split(",")[0]) for line in lines[1:]}
        assert {0.0, 0.5, 1.0} <= ts

    def test_one_member_checkpoint_exits_2_naming_the_file(self, tmp_path, capsys):
        model, out = write_net(tmp_path), tmp_path / "s.csv"
        assert main(["line-scan", "--model", str(model), "--data", str(write_data_spec(tmp_path)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: line analysis requires exactly two members, got 1\n")
        assert not out.exists()

    def test_plain_checkpoint_exits_2(self, trained, tmp_path):
        _, teachers = trained
        data = write_data_spec(tmp_path)
        assert main(["line-scan", "--model", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(data), "--out", str(tmp_path / "s.csv")]) == 2

    def test_csv_data_spec_exits_2(self, trained, tmp_path, capsys):
        cfg, teachers = trained
        out_l = tmp_path / "latent"
        main(["distill", "--config", str(cfg), "--teachers", str(teachers),
              "--out", str(out_l)])
        assert main(["line-scan", "--model", str(out_l / "seed0" / "student_be.json"),
                     "--data", str(write_csv_spec(tmp_path)),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "mixture" in capsys.readouterr().err


class TestAverage:
    def test_plain_checkpoint_exits_2_naming_the_file(self, tmp_path, capsys):
        model, out = write_net(tmp_path), tmp_path / "avg.json"
        assert main(["average", "--model", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: rank-one averaging needs a factored net\n")
        assert not out.exists()


class TestPerturbDiag:
    def test_schema_and_identical_teachers_give_zero_shift(self, trained, tmp_path):
        cfg, teachers = trained
        # identical-teacher ensemble: copy teacher0 over teacher1
        twin = tmp_path / "twin" / "seed0"
        twin.mkdir(parents=True)
        payload = (teachers / "seed0" / "teacher0.json").read_bytes()
        (twin / "teacher0.json").write_bytes(payload)
        (twin / "teacher1.json").write_bytes(payload)
        out_l = tmp_path / "latent"
        main(["distill", "--config", str(cfg), "--teachers", str(teachers),
              "--out", str(out_l)])
        data = write_data_spec(tmp_path)
        out = tmp_path / "diag.csv"
        assert main(["perturb-diag", "--teachers", str(tmp_path / "twin"),
                     "--student", str(out_l / "seed0" / "student_be.json"),
                     "--data", str(data), "--kind", "gaussian",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,kind,mean_dT,mean_dS,frac_ascent"
        for line in lines[1:]:
            assert float(line.split(",")[2]) == 0.0  # dT identically zero

    def test_stray_teacher_file_is_not_counted(self, trained, tmp_path):
        # teachers are counted from teacher0.json up to the first missing index
        cfg, teachers = trained
        out_l = tmp_path / "latent"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out_l)]) == 0
        seed_dir = teachers / "seed0"
        (seed_dir / "teacher_old.json").write_bytes((seed_dir / "teacher0.json").read_bytes())
        out = tmp_path / "diag.csv"
        assert main(["perturb-diag", "--teachers", str(teachers),
                     "--student", str(out_l / "seed0" / "student_be.json"),
                     "--data", str(write_data_spec(tmp_path)), "--kind", "tdiv_sdiv",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 1  # the header, one batch of rows

    @pytest.mark.parametrize("kind", ["tdiv", "tdiv_sdiv", "ods"])
    def test_pair_kinds_stack_the_nets_once(self, trained, tmp_path, monkeypatch, kind):
        # one nets.stack per command, none per batch; none at all for a kind
        # that reads no stack
        cfg, teachers = trained
        out_l = tmp_path / "latent"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out_l)]) == 0
        calls = []
        monkeypatch.setattr(cli, "stack", lambda nets: calls.append(len(nets)) or stack(nets))
        monkeypatch.setattr("distilab.perturb.stack", lambda nets: calls.append(None))
        out = tmp_path / "diag.csv"
        assert main(["perturb-diag", "--teachers", str(teachers),
                     "--student", str(out_l / "seed0" / "student_be.json"),
                     "--data", str(write_data_spec(tmp_path)), "--kind", kind,
                     "--out", str(out)]) == 0
        assert calls == {"tdiv": [1], "tdiv_sdiv": [2], "ods": []}[kind]
        assert len(out.read_text().splitlines()) == 1 + 1  # the header, one batch of rows

    def test_unknown_kind_exits_2(self, trained, tmp_path):
        cfg, teachers = trained
        out_l = tmp_path / "latent"
        main(["distill", "--config", str(cfg), "--teachers", str(teachers),
              "--out", str(out_l)])
        data = write_data_spec(tmp_path)
        assert main(["perturb-diag", "--teachers", str(teachers),
                     "--student", str(out_l / "seed0" / "student_be.json"),
                     "--data", str(data), "--kind", "warp",
                     "--out", str(tmp_path / "d.csv")]) == 2

    def test_csv_data_spec_exits_2(self, trained, tmp_path, capsys):
        _, teachers = trained
        assert main(["perturb-diag", "--teachers", str(teachers),
                     "--student", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(write_csv_spec(tmp_path)), "--kind", "gaussian",
                     "--out", str(tmp_path / "d.csv")]) == 2
        assert "mixture" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, flag, value", [
        ("ods", "--tau", "0"), ("tdiv", "--tau", "0"), ("ods", "--tau", "-1"),
        ("ods", "--tau", "nan"), ("ods", "--tau", "inf"),
        ("ods", "--gamma", "nan"), ("tdiv", "--gamma", "nan"),
        ("gaussian", "--gamma", "-0.5"), ("ods", "--gamma", "inf"),
    ])
    def test_out_of_range_flag_exits_2(self, trained, tmp_path, capsys, kind, flag, value):
        _, teachers = trained
        out = tmp_path / "d.csv"
        assert main(["perturb-diag", "--teachers", str(teachers),
                     "--student", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(write_data_spec(tmp_path)), "--kind", kind,
                     flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("head", ["softmax", "dirichlet"])
    def test_teachers_that_disagree_exit_2_naming_the_file(self, trained, tmp_path, capsys,
                                                           head):
        # widths, or widths and head, differ from teacher0.json's
        cfg, teachers = trained
        out_l = tmp_path / "latent"
        assert main(["distill", "--config", str(cfg), "--teachers", str(teachers),
                     "--out", str(out_l)]) == 0
        mixed, odd = mixed_teachers(tmp_path, teachers, head)
        out = tmp_path / "d.csv"
        assert main(["perturb-diag", "--teachers", str(mixed),
                     "--student", str(out_l / "seed0" / "student_be.json"),
                     "--data", str(write_data_spec(tmp_path)), "--kind", "tdiv_sdiv",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {odd}: hidden widths [6, 6] and head '{head}' differ from "
            f"teacher0.json's [16, 16] and 'softmax'\n")
        assert not out.exists()

    def test_tdiv_sdiv_requires_factored_student(self, trained, tmp_path):
        _, teachers = trained
        data = write_data_spec(tmp_path)
        assert main(["perturb-diag", "--teachers", str(teachers),
                     "--student", str(teachers / "seed0" / "teacher0.json"),
                     "--data", str(data), "--kind", "tdiv_sdiv",
                     "--out", str(tmp_path / "d.csv")]) == 2

    def test_student_that_does_not_fit_the_data_exits_2(self, trained, tmp_path, capsys):
        _, teachers = trained
        student = tmp_path / "wide.json"
        checkpoint_save(build_plain(ModelSpec(3, 3, (8,)), rng_stream(0, "init")), student)
        out = tmp_path / "d.csv"
        assert main(["perturb-diag", "--teachers", str(teachers), "--student", str(student),
                     "--data", str(write_data_spec(tmp_path)), "--kind", "gaussian",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {student}: checkpoint has in_dim 3 and "
                                           f"3 classes, the data has in_dim 2 and 3 classes\n")
        assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    """README's command-line section runs as written."""

    def test_run_config_block_loads(self, tmp_path):
        [block] = [b for b in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
                   if '"seeds"' in b]
        path = tmp_path / "exp.json"
        path.write_text(block)
        run = cli.load_run_config(path)
        assert (run.distill.method, run.distill.perturbation) == ("latentbe", "tdiv_sdiv")

    def test_shell_commands_parse(self):
        text = "\n".join(re.findall(r"```bash\n(.*?)```", README.read_text(), re.S))
        commands = [shlex.split(line) for line in text.replace("\\\n", " ").splitlines()
                    if line.startswith("distilab ")]
        assert {argv[1] for argv in commands} == {
            name[len("cmd_"):].replace("_", "-") for name in dir(cli) if name.startswith("cmd_")}
        for argv in commands:
            assert cli.build_parser().parse_args(argv[1:]).command == argv[1]
