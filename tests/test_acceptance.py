"""End-to-end acceptance gate.

Each test here is one release criterion with its stated tolerance and, where
relevant, a runtime budget. Budgets are checked in CPU time so they bound the
implementation's cost rather than scheduler contention on a shared box. They run on the default synthetic dataset
(6 subjects, 10 minutes per activity, 20 Hz, seed 7) or on seeded random
inputs, and compare against independently coded oracles.
"""
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import harkit
from harkit.classifiers import (
    ModelKind,
    ModelSpec,
    bootstrap_indices,
    predict_batch,
    train,
)
from harkit.evaluation import (
    NR_NRP,
    NR_RP,
    UNR_RP,
    EvalConfig,
    Protocol,
    evaluate,
    recordings_to_features,
)
from harkit.features import (
    Bank,
    autocorrelation,
    average_resultant,
    binned_distribution,
    extract_bank_a,
    extract_bank_b,
    feature_matrix,
    fit_ar,
    fit_arma,
    fit_ma,
    partial_autocorrelation,
    peak_interval_stats,
)
from harkit.ingest import Activity, SensorKind, SynthParams, generate_synthetic
from harkit.preprocess import Window
from harkit.stats import confidence_interval, paired_t_test


@pytest.fixture(scope="module")
def default_recordings():
    recordings, _ = generate_synthetic(SynthParams())  # 6 subjects, 10 min, seed 7
    return recordings


@pytest.fixture(scope="module")
def bank_b_75(default_recordings):
    vecs = recordings_to_features(default_recordings, Bank.B70, 75)
    return feature_matrix(vecs)


@pytest.fixture(scope="module")
def bank_b_150(default_recordings):
    vecs = recordings_to_features(default_recordings, Bank.B70, 150)
    return feature_matrix(vecs)


def random_window(rng, n):
    return Window("s0", Activity.Walking, SensorKind.Accelerometer,
                  rng.normal(size=n), rng.normal(size=n), rng.normal(size=n))


class TestFeatureOracleEquivalence:
    """Criterion 1: primitives match brute-force definitions within 1e-9
    on 1000 random signals (length <= 512), in under 10 seconds."""

    def test_primitives_match_bruteforce(self):
        rng = np.random.default_rng(101)
        t0 = time.process_time()
        for trial in range(1000):
            n = int(rng.integers(8, 513))
            sig = rng.normal(scale=rng.uniform(0.1, 10.0), size=n)

            # ACF straight from the definition
            for lag in (1, 2):
                c = sig - sig.mean()
                expect = np.sum(c[: n - lag] * c[lag:]) / np.sum(c * c)
                assert abs(autocorrelation(sig, lag) - expect) < 1e-9

            # PACF: last coefficient of the Yule-Walker solve
            lag = int(rng.integers(1, 4))
            r = np.array([
                np.sum((sig - sig.mean())[: n - k] * (sig - sig.mean())[k:])
                / np.sum((sig - sig.mean()) ** 2)
                for k in range(lag + 1)
            ])
            R = np.array([[r[abs(i - j)] for j in range(lag)] for i in range(lag)])
            expect = np.linalg.solve(R, r[1: lag + 1])[-1]
            assert abs(partial_autocorrelation(sig, lag) - expect) < 1e-9

            # binned distribution by explicit counting
            bins = binned_distribution(sig, 10)
            lo, hi = sig.min(), sig.max()
            counts = np.zeros(10)
            for v in sig:
                counts[min(int((v - lo) / (hi - lo) * 10), 9)] += 1
            assert np.max(np.abs(bins - counts / n)) < 1e-9

            # peak gaps by explicit scan
            peaks = [i for i in range(1, n - 1)
                     if sig[i] > sig[i - 1] and sig[i] > sig[i + 1]]
            expect = np.mean(np.diff(peaks)) if len(peaks) >= 2 else 0.0
            assert abs(peak_interval_stats(sig) - expect) < 1e-9

            # average resultant by explicit norm
            y = rng.normal(size=n)
            z = rng.normal(size=n)
            expect = np.mean(np.sqrt(sig**2 + y**2 + z**2))
            assert abs(average_resultant(sig, y, z) - expect) < 1e-9
        assert time.process_time() - t0 < 10.0


class TestEstimatorRecovery:
    """Criterion 2: AR(2) +-0.05, MA(1) +-0.1, ARMA(1,1) +-0.15 at n=5000,
    19 of 20 seeds per estimator, in under 30 seconds."""

    N = 5000

    @staticmethod
    def _simulate(kind, seed):
        rng = np.random.default_rng(seed)
        n, burn = TestEstimatorRecovery.N, 200
        e = rng.standard_normal(n + burn)
        x = np.zeros(n + burn)
        if kind == "ar":
            for t in range(2, n + burn):
                x[t] = 0.5 * x[t - 1] - 0.25 * x[t - 2] + e[t]
        elif kind == "ma":
            x[1:] = e[1:] + 0.5 * e[:-1]
        else:
            for t in range(1, n + burn):
                x[t] = 0.5 * x[t - 1] + e[t] + 0.3 * e[t - 1]
        return x[burn:]

    def test_recovery_across_seeds(self):
        t0 = time.process_time()
        hits = {"ar": 0, "ma": 0, "arma": 0}
        for seed in range(20):
            ar = fit_ar(self._simulate("ar", seed), 2)
            if abs(ar[0] - 0.5) <= 0.05 and abs(ar[1] + 0.25) <= 0.05:
                hits["ar"] += 1
            ma = fit_ma(self._simulate("ma", seed), 1)
            if abs(ma[0] - 0.5) <= 0.1:
                hits["ma"] += 1
            arma = fit_arma(self._simulate("arma", seed), 1, 1)
            if abs(arma[0] - 0.5) <= 0.15 and abs(arma[1] - 0.3) <= 0.15:
                hits["arma"] += 1
        assert hits["ar"] >= 19, f"AR(2) recovered on only {hits['ar']}/20 seeds"
        assert hits["ma"] >= 19, f"MA(1) recovered on only {hits['ma']}/20 seeds"
        assert hits["arma"] >= 19, f"ARMA(1,1) recovered on only {hits['arma']}/20 seeds"
        assert time.process_time() - t0 < 30.0


class TestBankWidths:
    """Criterion 3: every extracted vector is exactly 43-wide (bank A) or
    70-wide (bank B) and fully finite, under fuzzing that includes constant
    and near-constant windows."""

    def test_fuzzed_windows(self):
        rng = np.random.default_rng(202)
        windows = []
        for _ in range(60):
            n = int(rng.integers(4, 400))
            windows.append(random_window(rng, n))
        for n in (4, 5, 25, 75, 300):
            const = np.full(n, float(rng.normal()))
            windows.append(Window("s0", Activity.Walking, SensorKind.Accelerometer,
                                  const.copy(), const.copy(), const.copy()))
            near = const + rng.normal(scale=1e-12, size=n)
            windows.append(Window("s0", Activity.Walking, SensorKind.Accelerometer,
                                  near, const + 1e-15, np.zeros(n)))
        for w in windows:
            fa = extract_bank_a(w)
            fb = extract_bank_b(w)
            assert fa.values.shape == (43,)
            assert fb.values.shape == (70,)
            assert np.all(np.isfinite(fa.values)), "bank A produced a non-finite slot"
            assert np.all(np.isfinite(fb.values)), "bank B produced a non-finite slot"


def _blobs(rng, n_per_class=15, n_classes=3, d=6, sep=4.0):
    X, y = [], []
    for c in range(n_classes):
        center = np.zeros(d)
        center[c % d] = sep * (c + 1)
        X.append(rng.normal(size=(n_per_class, d)) + center)
        y.append(np.full(n_per_class, c))
    return np.vstack(X), np.concatenate(y)


class TestClassifierProperties:
    """Criterion 4: exact column-permutation label invariance (200 random
    permutations) for KNN/NB/SVM; quadratic-kernel SVM solves XOR; a 1-learner
    bagging ensemble equals its bootstrap+tree oracle; all models are
    bit-deterministic across runs and across BLAS thread counts {1, 4}."""

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(303)
        X, y = _blobs(rng)
        Xte = rng.normal(size=(20, 6)) + 4.0
        specs = [ModelSpec(ModelKind.Knn, k=5), ModelSpec(ModelKind.NaiveBayes),
                 ModelSpec(ModelKind.Svm, seed=1, C=5.0)]
        base = {s.kind: predict_batch(train(s, X, y), Xte)[0] for s in specs}
        for _ in range(200):
            perm = rng.permutation(X.shape[1])
            for spec in specs:
                labels, _ = predict_batch(train(spec, X[:, perm], y), Xte[:, perm])
                assert np.array_equal(labels, base[spec.kind]), (
                    f"{spec.kind.value} labels changed under column permutation"
                )

    def test_svm_solves_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        # the XOR dual with kernel (u.v+1)^2 needs alpha up to 10/3, so the
        # box constraint must exceed that; C=10 leaves comfortable slack
        model = train(ModelSpec(ModelKind.Svm, seed=0, C=10.0), X, y)
        labels, _ = predict_batch(model, X)
        assert np.array_equal(labels, y)
        assert model.converged

    def test_bagging_single_learner_oracle(self):
        rng = np.random.default_rng(404)
        X, y = _blobs(rng, n_per_class=25, sep=2.0)
        Xte = rng.normal(size=(40, 6))
        for seed in (0, 7, 99):
            bag = train(ModelSpec(ModelKind.Bagging, seed=seed, n_learners=1), X, y)
            idx = bootstrap_indices(seed, 0, len(y))
            tree = train(ModelSpec(ModelKind.DecisionTree, max_splits=None),
                         X[idx], y[idx])
            bl, _ = predict_batch(bag, Xte)
            tl, _ = predict_batch(tree, Xte)
            assert np.array_equal(bl, tl)

    def test_bit_determinism_across_runs_and_thread_counts(self, tmp_path):
        script = tmp_path / "determinism_probe.py"
        script.write_text(
            "import hashlib\n"
            "import numpy as np\n"
            "import harkit\n"
            "from harkit.classifiers import ModelKind, ModelSpec, predict_batch, train\n"
            "print(harkit.__file__)\n"
            "rng = np.random.default_rng(505)\n"
            "X = rng.normal(size=(60, 6))\n"
            "X[:30] += 3.0\n"
            "y = np.array([0] * 30 + [1] * 15 + [2] * 15)\n"
            "Xte = rng.normal(size=(25, 6))\n"
            "h = hashlib.sha256()\n"
            "for kind in ModelKind:\n"
            "    spec = ModelSpec(kind, seed=2, n_learners=5, C=5.0)\n"
            "    labels, scores = predict_batch(train(spec, X, y), Xte)\n"
            "    h.update(labels.astype(np.int64).tobytes())\n"
            "    h.update(scores.astype(np.float64).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        # the child gets a sanitized env, so hand it the source root of the
        # harkit imported here; this holds for PYTHONPATH=src and for installs
        package_file = Path(harkit.__file__).resolve()
        digests = []
        for threads in ("1", "4", "1"):  # repeat 1 to also cover run-to-run
            env = {
                "OMP_NUM_THREADS": threads,
                "OPENBLAS_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": str(package_file.parents[1]),
            }
            out = subprocess.run([sys.executable, str(script)], env=env,
                                 capture_output=True, text=True)
            assert out.returncode == 0, (
                f"probe exited {out.returncode} with {threads} thread(s):\n"
                f"{out.stderr}")
            probed_file, digest = out.stdout.splitlines()
            assert Path(probed_file).resolve() == package_file, (
                f"probe imported {probed_file}, not the harkit under test "
                f"({package_file})")
            digests.append(digest)
        assert len(set(digests)) == 1, f"prediction digests diverged: {digests}"


@pytest.fixture(scope="module")
def small_features():
    recordings, _ = generate_synthetic(
        SynthParams(n_subjects=3, minutes_per_activity=1.0, seed=11)
    )
    return feature_matrix(recordings_to_features(recordings, Bank.B70, 75))


class TestCvAccounting:
    """Criterion 5: both protocols test every instance exactly once, confusion
    totals equal the dataset size, and an instrumented normalizer fit never
    sees held-out rows."""

    @pytest.mark.parametrize("protocol", [Protocol.Personal, Protocol.Impersonal])
    def test_every_instance_tested_once(self, small_features, protocol):
        X, y, subjects = small_features
        config = EvalConfig(ModelSpec(ModelKind.DecisionTree, seed=1), Bank.B70, 75,
                            NR_RP, protocol, folds=10, seed=5)
        report = evaluate(config, X, y, subjects)
        assert report.confusion.sum() == len(y)
        np.testing.assert_array_equal(report.confusion.sum(axis=1),
                                      np.bincount(y, minlength=5))
        np.testing.assert_array_equal(report.unit_confusions.sum(axis=0),
                                      report.confusion)

    @pytest.mark.parametrize("protocol", [Protocol.Personal, Protocol.Impersonal])
    def test_no_normalizer_leakage(self, small_features, protocol, monkeypatch):
        import harkit.evaluation as ev

        X, y, subjects = small_features
        # tag every instance with a unique id in an extra trailing column
        Xm = np.hstack([X, np.arange(len(y), dtype=float)[:, None]])
        fitted, applied_tests = [], []
        real_fit = ev.fit_normalizer
        real_apply = ev.apply_normalizer

        def spy_fit(train_features):
            fitted.append(frozenset(np.round(train_features[:, -1]).astype(int)))
            return real_fit(train_features)

        def spy_apply(norm, features):
            applied_tests.append(frozenset(np.round(features[:, -1]).astype(int)))
            return real_apply(norm, features)

        monkeypatch.setattr(ev, "fit_normalizer", spy_fit)
        monkeypatch.setattr(ev, "apply_normalizer", spy_apply)
        config = EvalConfig(ModelSpec(ModelKind.NaiveBayes), Bank.B70, 75,
                            NR_NRP, protocol, folds=10, seed=5)
        evaluate(config, Xm, y, subjects)
        assert fitted, "normalizer was never fitted"
        # apply() is called on the train rows then the test rows of each split
        assert len(applied_tests) == 2 * len(fitted)
        for si, train_rows in enumerate(fitted):
            test_rows = applied_tests[2 * si + 1]
            assert not (train_rows & test_rows), "normalizer fit saw test rows"


class TestStatisticsOracles:
    """Criterion 6: the paired t-test and the 98% confidence interval match
    high-precision scipy oracles within 1e-6 on 100 random accuracy vectors."""

    def test_confidence_interval(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            acc = rng.uniform(0.0, 1.0, n)
            mean, half = confidence_interval(acc, level=0.98)
            expect = sps.t.ppf(0.99, n - 1) * acc.std(ddof=1) / math.sqrt(n)
            assert abs(mean - acc.mean()) < 1e-12
            assert abs(half - expect) < 1e-6

    def test_paired_t(self):
        rng = np.random.default_rng(707)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            a = rng.uniform(0.0, 1.0, n)
            b = np.clip(a + rng.normal(0, 0.05, n), 0.0, 1.0)
            res = paired_t_test(a, b)
            expect = sps.ttest_rel(a, b)
            assert abs(res.t_stat - expect.statistic) < 1e-6
            assert abs(res.p_two_sided - expect.pvalue) < 1e-6


class TestAccuracyTargets:
    """Criterion 7: decision tree + bank B + NR-RP at 75-sample windows on the
    default dataset reaches Personal >= 0.95 and Impersonal (leave-one-subject-
    out) >= 0.85 overall, with Personal recall >= Impersonal recall for every
    activity, in under 2 minutes."""

    def test_personal_and_impersonal_targets(self, bank_b_75):
        X, y, subjects = bank_b_75
        t0 = time.process_time()
        spec = ModelSpec(ModelKind.DecisionTree, seed=1)
        personal = evaluate(
            EvalConfig(spec, Bank.B70, 75, NR_RP, Protocol.Personal, seed=11),
            X, y, subjects,
        )
        impersonal = evaluate(
            EvalConfig(spec, Bank.B70, 75, NR_RP, Protocol.Impersonal, seed=11),
            X, y, subjects,
        )
        elapsed = time.process_time() - t0
        assert personal.overall_accuracy >= 0.95, (
            f"personal accuracy {personal.overall_accuracy:.4f} < 0.95"
        )
        assert impersonal.overall_accuracy >= 0.85, (
            f"impersonal accuracy {impersonal.overall_accuracy:.4f} < 0.85"
        )
        for act in Activity:
            assert personal.per_activity_recall[act] >= impersonal.per_activity_recall[act], (
                f"{act.name}: personal recall {personal.per_activity_recall[act]:.4f} "
                f"< impersonal {impersonal.per_activity_recall[act]:.4f}"
            )
        assert elapsed < 120.0, f"evaluation took {elapsed:.0f}s"


class TestWindowSweepTrend:
    """Criterion 8: across the 12-point window sweep on the fixed dataset,
    KNN loses at least 5 accuracy points from window 25 to window 300 while
    the decision tree stays within a 10-point band, in under 10 minutes."""

    def test_knn_degrades_while_tree_is_stable(self, default_recordings):
        t0 = time.process_time()
        knn_acc, tree_acc = {}, {}
        for size in tuple(range(25, 301, 25)):
            X, y, subjects = feature_matrix(
                recordings_to_features(default_recordings, Bank.B70, size)
            )
            for kind, out in ((ModelKind.Knn, knn_acc), (ModelKind.DecisionTree, tree_acc)):
                config = EvalConfig(ModelSpec(kind, seed=1), Bank.B70, size,
                                    NR_RP, Protocol.Impersonal, seed=11)
                out[size] = evaluate(config, X, y, subjects).overall_accuracy
        elapsed = time.process_time() - t0
        drop = knn_acc[25] - knn_acc[300]
        band = max(tree_acc.values()) - min(tree_acc.values())
        assert drop >= 0.05, (
            f"KNN dropped only {drop * 100:.2f} points "
            f"({knn_acc[25]:.4f} -> {knn_acc[300]:.4f})"
        )
        assert band <= 0.10, f"decision-tree band spans {band * 100:.2f} points"
        assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"


class TestNormalizationEffect:
    """Criterion 9: after rescaling features to heterogeneous magnitudes,
    the scale-sensitive classifiers (KNN, SVM) do at least as well with
    normalization (NR-RP) as without it (UNR-RP)."""

    def test_normalized_beats_unnormalized(self, bank_b_150):
        X, y, subjects = bank_b_150
        scales = 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, X.shape[1])
        Xs = X * scales
        for kind in (ModelKind.Knn, ModelKind.Svm):
            acc = {}
            for treatment in (NR_RP, UNR_RP):
                config = EvalConfig(ModelSpec(kind, seed=1), Bank.B70, 150,
                                    treatment, Protocol.Personal, seed=11)
                acc[treatment.name] = evaluate(config, Xs, y, subjects).overall_accuracy
            assert acc["nr-rp"] >= acc["unr-rp"], (
                f"{kind.value}: normalized {acc['nr-rp']:.4f} "
                f"< unnormalized {acc['unr-rp']:.4f}"
            )
