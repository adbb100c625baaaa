"""Optical pumping laws and Monte-Carlo single-shot nuclear readout."""

import math

import numpy as np
import pytest
from scipy import stats

from sivreg import fitting
from sivreg.readout import (BRIGHT, DARK, OFFRES, STATES, ClassifyResult, FitFailed,
                            PhotonRecord, PumpParams, SsrConfig, classify_threshold,
                            fit_photon_histogram, polarization_rate,
                            saturation_linewidth, simulate_ssr)

GAMMA0 = 96.251e6      # Fourier-limited linewidth, Hz
ETA = 816.285          # cyclicity
T_POL_N = 41.6178057e-3


# --------------------------------------------------------------------------
# pumping laws


def test_polarization_rate_at_unit_saturation():
    rate = polarization_rate(PumpParams(GAMMA0, ETA, 1.0))
    assert rate == pytest.approx(29.48e3, rel=1e-3)


def test_polarization_rate_saturates_at_half_linewidth_over_cyclicity():
    limit = GAMMA0 / (2.0 * ETA)
    rate = polarization_rate(PumpParams(GAMMA0, ETA, 1e9))
    assert rate == pytest.approx(limit, rel=1e-8)
    # monotone in drive power
    rates = [polarization_rate(PumpParams(GAMMA0, ETA, s))
             for s in (0.1, 0.5, 1.0, 4.0, 20.0)]
    assert np.all(np.diff(rates) > 0)


def test_pump_params_validation():
    with pytest.raises(ValueError):
        PumpParams(-1.0, ETA, 1.0)
    with pytest.raises(ValueError):
        PumpParams(GAMMA0, ETA, -0.5)


def test_cyclicity_recovered_from_noisy_rate_curve():
    s = np.linspace(0.2, 8.0, 25)
    rate = np.array([polarization_rate(PumpParams(GAMMA0, ETA, si))
                     for si in s])
    rng = np.random.default_rng(2)
    noisy = rate * (1.0 + 0.01 * rng.standard_normal(s.size))
    res = fitting.least_squares(fitting.get_model("pol_rate"), s, noisy,
                                fixed={"gamma0": GAMMA0})
    assert res["eta"] == pytest.approx(ETA, rel=0.02)


def test_saturation_linewidth_values():
    assert saturation_linewidth(0.0, GAMMA0) == GAMMA0
    assert saturation_linewidth(3.0, GAMMA0) == pytest.approx(2.0 * GAMMA0)
    arr = saturation_linewidth(np.array([0.0, 3.0]), GAMMA0)
    assert arr.shape == (2,)
    with pytest.raises(ValueError):
        saturation_linewidth(-0.1, GAMMA0)


def test_zero_power_linewidth_recovered_within_one_percent():
    g0 = 114.98e6
    s = np.linspace(0.2, 8.0, 25)
    rng = np.random.default_rng(3)
    lw = saturation_linewidth(s, g0) * (1.0 + 0.005 * rng.standard_normal(s.size))
    res = fitting.least_squares(fitting.get_model("saturation_law"), s, lw)
    assert res["gamma0"] == pytest.approx(g0, rel=0.01)


# --------------------------------------------------------------------------
# single-shot readout Monte Carlo


@pytest.fixture(scope="module")
def paper_record():
    cfg = SsrConfig()
    return cfg, simulate_ssr(cfg, initial_nuclear="alternate", n_shots=10000)


def test_ssr_window_means_match_configuration():
    cfg = SsrConfig(p_offres=0.0, t_pol_n=1e6)
    bright = simulate_ssr(cfg, "bright", 3000)
    dark = simulate_ssr(cfg, "dark", 3000)
    assert bright.counts.mean() == pytest.approx(
        32.0, abs=3.0 * math.sqrt(32.0 / 3000))
    assert dark.counts.mean() == pytest.approx(
        10.0, abs=3.0 * math.sqrt(10.0 / 3000))


def test_ssr_bright_survival_loss(paper_record):
    cfg, rec = paper_record
    analytic = -math.expm1(-cfg.t_window / cfg.t_pol_n)
    assert analytic == pytest.approx(0.0695, abs=5e-4)
    prepared_bright = rec.initial_state == BRIGHT
    loss = float(np.mean(rec.final_state[prepared_bright] == DARK))
    n = int(prepared_bright.sum())
    assert abs(loss - analytic) <= 3.0 * math.sqrt(analytic * (1 - analytic) / n)


def test_ssr_off_resonant_branch(paper_record):
    cfg, rec = paper_record
    offres = rec.initial_state == OFFRES
    frac = float(offres.mean())
    assert abs(frac - cfg.p_offres) <= 3.0 * math.sqrt(
        cfg.p_offres * (1 - cfg.p_offres) / len(rec))
    assert np.all(rec.counts[offres] == 0)


def test_ssr_bit_reproducible_and_prefix_stable():
    cfg = SsrConfig(seed=42)
    a = simulate_ssr(cfg, "alternate", 200)
    b = simulate_ssr(cfg, "alternate", 200)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.initial_state, b.initial_state)
    assert np.array_equal(a.final_state, b.final_state)
    # per-shot seeding: a shorter run is a prefix of a longer one
    short = simulate_ssr(cfg, "alternate", 60)
    assert np.array_equal(short.counts, a.counts[:60])
    c = simulate_ssr(SsrConfig(seed=43), "alternate", 200)
    assert not np.array_equal(a.counts, c.counts)


def _per_shot_reference_ssr(c, initial_nuclear="bright", n_shots=1):
    """The per-shot Monte Carlo simulate_ssr replaced: one generator per shot."""
    if initial_nuclear not in ("bright", "dark", "alternate"):
        raise ValueError("initial_nuclear must be 'bright', 'dark' or 'alternate'")
    p_flip = -math.expm1(-c.t_block / c.t_pol_n)
    lam_b = c.mean_bright / c.n_blocks
    lam_d = c.mean_dark / c.n_blocks

    counts = np.zeros(n_shots, dtype=np.int64)
    initial = np.empty(n_shots, dtype=np.int8)
    final = np.empty(n_shots, dtype=np.int8)
    for i in range(n_shots):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=c.seed, spawn_key=(i,)))
        bright0 = initial_nuclear == "bright" or (
            initial_nuclear == "alternate" and i % 2 == 0)
        if rng.random() < c.p_offres:
            initial[i] = OFFRES
            final[i] = BRIGHT if bright0 else DARK
            counts[i] = 0
            continue
        initial[i] = BRIGHT if bright0 else DARK
        if not bright0:
            counts[i] = rng.poisson(c.mean_dark)
            final[i] = DARK
            continue
        # block index at whose end the nucleus flips (1-based)
        g = rng.geometric(p_flip) if p_flip > 0 else c.n_blocks + 1
        n_bright = min(g, c.n_blocks)
        counts[i] = rng.poisson(lam_b * n_bright + lam_d * (c.n_blocks - n_bright))
        final[i] = BRIGHT if g > c.n_blocks else DARK
    return PhotonRecord(counts, initial, final)


def _proportion_gap_sigma(p_a, n_a, p_b, n_b):
    p = (p_a * n_a + p_b * n_b) / (n_a + n_b)
    return math.sqrt(p * (1 - p) * (1.0 / n_a + 1.0 / n_b))


def _pooled_columns(table, min_total=10):
    """Merge adjacent histogram columns left to right until each holds min_total shots."""
    cols, acc = [], np.zeros(table.shape[0], dtype=table.dtype)
    for col in table.T:
        acc = acc + col
        if acc.sum() >= min_total:
            cols.append(acc)
            acc = np.zeros_like(acc)
    cols[-1] = cols[-1] + acc
    return np.array(cols).T


@pytest.mark.parametrize("initial", ["bright", "dark", "alternate"])
def test_batched_ssr_matches_the_per_shot_reference(initial):
    """Different streams, same distribution: at 60k shots the class means, the
    off-resonant fraction and the bright loss agree within 4 sigma, and a
    two-sample chi-squared test does not tell the count histograms apart."""
    n = 60000
    cfg = SsrConfig(seed=11)
    new, ref = simulate_ssr(cfg, initial, n), _per_shot_reference_ssr(cfg, initial, n)
    classes = ("bright", "dark") if initial == "alternate" else (initial,)
    for state in (STATES.index(name) for name in classes):
        a, b = new.counts[new.initial_state == state], ref.counts[ref.initial_state == state]
        sigma = math.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) <= 4.0 * sigma, (state, a.mean(), b.mean())
    f_a, f_b = np.mean(new.initial_state == OFFRES), np.mean(ref.initial_state == OFFRES)
    assert abs(f_a - f_b) <= 4.0 * _proportion_gap_sigma(f_a, n, f_b, n)
    if "bright" in classes:
        bright_a, bright_b = new.initial_state == BRIGHT, ref.initial_state == BRIGHT
        loss_a = np.mean(new.final_state[bright_a] == DARK)
        loss_b = np.mean(ref.final_state[bright_b] == DARK)
        assert abs(loss_a - loss_b) <= 4.0 * _proportion_gap_sigma(
            loss_a, bright_a.sum(), loss_b, bright_b.sum())
    n_bins = int(max(new.counts.max(), ref.counts.max())) + 1
    table = _pooled_columns(np.array([np.bincount(new.counts, minlength=n_bins),
                                      np.bincount(ref.counts, minlength=n_bins)]))
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 1e-3, p_value


@pytest.mark.parametrize("initial", ["bright", "dark", "alternate"])
def test_off_resonant_shots_emit_nothing_and_keep_their_prepared_state(initial):
    rec = simulate_ssr(SsrConfig(seed=4, p_offres=0.3), initial, 4000)
    offres = rec.initial_state == OFFRES
    assert 0 < offres.sum() < len(rec)
    assert np.all(rec.counts[offres] == 0)
    shot = np.arange(len(rec))
    prepared = np.where((initial == "dark") | ((initial == "alternate") & (shot % 2 == 1)),
                        DARK, BRIGHT)
    assert np.array_equal(rec.final_state[offres], prepared[offres])
    assert np.array_equal(rec.initial_state[~offres], prepared[~offres])


@pytest.mark.parametrize("initial", ["bright", "dark", "alternate"])
def test_ssr_runs_are_prefixes_of_longer_runs(initial):
    cfg = SsrConfig(seed=42)
    for short, long in ((1, 200), (60, 200), (10000, 60000)):
        a, b = simulate_ssr(cfg, initial, short), simulate_ssr(cfg, initial, long)
        assert len(a) == short and len(b) == long
        assert np.array_equal(a.counts, b.counts[:short]), (short, long)
        assert np.array_equal(a.initial_state, b.initial_state[:short]), (short, long)
        assert np.array_equal(a.final_state, b.final_state[:short]), (short, long)


def test_ssr_without_flips_keeps_every_bright_nucleus():
    # t_block / t_pol_n underflows to 0: the per-block flip probability is exactly 0
    cfg = SsrConfig(t_block=5e-324, t_pol_n=10.0, p_offres=0.0)
    rec = simulate_ssr(cfg, "bright", 3000)
    assert np.all(rec.final_state == BRIGHT)
    assert rec.counts.mean() == pytest.approx(32.0, abs=4.0 * math.sqrt(32.0 / 3000))


def test_ssr_config_validation():
    with pytest.raises(ValueError):
        SsrConfig(n_blocks=0)
    with pytest.raises(ValueError):
        SsrConfig(t_block=0.0)
    with pytest.raises(ValueError):
        SsrConfig(mean_bright=5.0, mean_dark=10.0)
    with pytest.raises(ValueError):
        SsrConfig(p_offres=1.0)
    with pytest.raises(ValueError):
        SsrConfig(t_pol_n=0.0)
    with pytest.raises(ValueError):
        SsrConfig(threshold=-1)
    assert SsrConfig().t_window == pytest.approx(3e-3)


def test_photon_record_validation():
    with pytest.raises(ValueError):
        PhotonRecord(np.array([-1]), np.array([BRIGHT]), np.array([BRIGHT]))
    with pytest.raises(ValueError):
        PhotonRecord(np.array([1, 2]), np.array([BRIGHT]), np.array([BRIGHT, DARK]))
    with pytest.raises(ValueError):
        simulate_ssr(SsrConfig(), initial_nuclear="sideways")


@pytest.mark.parametrize("codes", [[0, 3], [-1, 0], [0, 1000], np.array([0, 255], np.uint8),
                                   ["bright", "dark"], [0.0, 1.0], [True, False]])
@pytest.mark.parametrize("field", ["initial_state", "final_state"])
def test_photon_record_rejects_codes_outside_states(codes, field):
    states = {"initial_state": [BRIGHT, DARK], "final_state": [BRIGHT, DARK], field: codes}
    with pytest.raises(ValueError, match=field):
        PhotonRecord(np.array([3, 4]), **states)


def test_photon_record_holds_int8_codes_into_states():
    record = PhotonRecord(np.array([0, 5, 9]), np.array([OFFRES, DARK, BRIGHT]), [1, 1, 0])
    assert record.initial_state.dtype == record.final_state.dtype == np.int8
    assert [STATES[c] for c in record.initial_state] == ["offres", "dark", "bright"]
    assert [STATES[c] for c in record.final_state] == ["dark", "dark", "bright"]
    empty = PhotonRecord(np.array([], int), np.array([], np.int8), np.array([], np.int8))
    assert len(empty) == 0


# --------------------------------------------------------------------------
# threshold classification


def test_classification_perfectly_separated():
    record = PhotonRecord(
        np.array([0, 1, 0, 100, 99, 100]),
        np.array([DARK] * 3 + [BRIGHT] * 3),
        np.array([DARK] * 3 + [BRIGHT] * 3))
    res = classify_threshold(record, 21)
    assert isinstance(res, ClassifyResult)
    assert res.fidelity_bright == 1.0 and res.fidelity_dark == 1.0
    assert res.posterior_bright == 1.0 and res.posterior_dark == 1.0
    assert np.array_equal(res.labels, [False, False, False, True, True, True])
    with pytest.raises(ValueError):
        classify_threshold(record, -2)


def test_classification_fidelities_at_paper_parameters(paper_record):
    cfg, rec = paper_record
    res = classify_threshold(rec, cfg.threshold)
    # post-selected initialization fidelities (state after the window, given
    # the assigned label)
    assert abs(res.posterior_bright - 0.925) <= 0.05
    assert abs(res.posterior_dark - 0.91) <= 0.05
    assert res.fidelity_bright > 0.9 and res.fidelity_dark > 0.95


def _scanned_equal_threshold(record, threshold):
    """Equal-fidelity threshold by classifying every shot at every threshold."""
    best, best_gap = int(threshold), math.inf
    b0 = record.initial_state == BRIGHT
    d0 = record.initial_state == DARK
    for thr in range(int(record.counts.max()) + 1):
        labels = record.counts > thr
        f_b = float(np.mean(labels[b0])) if b0.any() else math.nan
        f_d = float(np.mean(~labels[d0])) if d0.any() else math.nan
        gap = abs(f_b - f_d)
        if math.isfinite(gap) and gap < best_gap:
            best, best_gap = thr, gap
    return best


def test_equal_threshold_matches_scan_over_every_threshold(paper_record):
    cfg, rec = paper_record
    records = [rec] + [simulate_ssr(cfg, initial, n)
                       for initial, n in (("alternate", 1000), ("alternate", 7),
                                          ("bright", 500), ("dark", 500))]
    # fractional (drift-corrected) counts, and a gap that ties at thresholds 1, 2 and 3
    states = np.array([BRIGHT, DARK, DARK, BRIGHT, OFFRES])
    records.append(PhotonRecord(np.array([2.5, 0.5, 3.0, 4.0, 7.2]), states, states))
    records.append(PhotonRecord(np.array([1, 2, 2, 4]), states[:4], states[:4]))
    for record in records:
        assert classify_threshold(record, 21).equal_threshold == \
            _scanned_equal_threshold(record, 21), record.counts[:8]


def _string_classify_reference(counts, initial, final, threshold):
    """classify_threshold as it read when a record held its states as the strings
    'bright', 'dark' and 'offres' (object arrays), kept as the reference of the codes."""
    labels = counts > threshold
    b0 = initial == "bright"
    d0 = initial == "dark"
    f_b = float(np.mean(labels[b0])) if b0.any() else math.nan
    f_d = float(np.mean(~labels[d0])) if d0.any() else math.nan
    final_bright = final == "bright"
    p_b = float(np.mean(final_bright[labels])) if labels.any() else math.nan
    p_d = float(np.mean(~final_bright[~labels])) if (~labels).any() else math.nan
    n_thr = int(counts.max()) + 1
    best = int(threshold)
    if b0.any() and d0.any():
        ceil_counts = np.ceil(counts).astype(np.int64)
        at_or_below = [np.cumsum(np.bincount(ceil_counts[cls], minlength=n_thr)[:n_thr])
                       for cls in (b0, d0)]
        n_b, n_d = int(b0.sum()), int(d0.sum())
        gap = np.abs((n_b - at_or_below[0]) / n_b - at_or_below[1] / n_d)
        best = int(np.argmin(gap))
    return ClassifyResult(labels, f_b, f_d, p_b, p_d, best)


@pytest.mark.parametrize("initial", ["bright", "dark", "alternate"])
@pytest.mark.parametrize("seed", [0, 5, 2 ** 40 + 3])
def test_classification_on_codes_matches_the_string_reference(seed, initial):
    rec = simulate_ssr(SsrConfig(seed=seed, p_offres=0.2), initial, 3000)
    names = np.array(STATES, dtype=object)
    initial_names, final_names = names[rec.initial_state], names[rec.final_state]
    assert set(initial_names) <= set(STATES) and set(final_names) <= {"bright", "dark"}
    for threshold in (0, 5, 10, 21, 33, 80):
        new = classify_threshold(rec, threshold)
        ref = _string_classify_reference(rec.counts, initial_names, final_names, threshold)
        np.testing.assert_array_equal(new.labels, ref.labels)
        for field in ("fidelity_bright", "fidelity_dark", "posterior_bright",
                      "posterior_dark", "equal_threshold"):
            a, b = getattr(new, field), getattr(ref, field)
            assert a == b or (math.isnan(a) and math.isnan(b)), (threshold, field, a, b)


def test_equalizing_threshold_minimizes_class_gap(paper_record):
    cfg, rec = paper_record
    res = classify_threshold(rec, cfg.threshold)
    eq = res.equal_threshold
    assert 10 <= eq <= 21
    res_eq = classify_threshold(rec, eq)
    gap_eq = abs(res_eq.fidelity_bright - res_eq.fidelity_dark)
    gap_default = abs(res.fidelity_bright - res.fidelity_dark)
    assert gap_eq <= gap_default


def test_misclassification_matches_poisson_tails():
    """Without flips or the off-resonant branch the window counts are plain
    Poisson draws, so the error rates must match the summed tail mass."""
    cfg = SsrConfig(p_offres=0.0, t_pol_n=1e6)
    n = 6000
    bright = classify_threshold(simulate_ssr(cfg, "bright", n), 21)
    dark = classify_threshold(simulate_ssr(cfg, "dark", n), 21)
    tail_b = stats.poisson.cdf(21, 32.0)      # bright labeled dark
    tail_d = stats.poisson.sf(21, 10.0)       # dark labeled bright
    assert abs((1.0 - bright.fidelity_bright) - tail_b) <= \
        4.0 * math.sqrt(tail_b * (1 - tail_b) / n)
    assert abs((1.0 - dark.fidelity_dark) - tail_d) <= \
        4.0 * math.sqrt(tail_d * (1 - tail_d) / n)


def test_classification_improves_with_count_separation():
    fids = []
    for mean_bright in (24.0, 32.0, 40.0):
        cfg = SsrConfig(mean_bright=mean_bright, p_offres=0.0, t_pol_n=1e6,
                        seed=3)
        rec = simulate_ssr(cfg, "bright", 3000)
        fids.append(classify_threshold(rec, 21).fidelity_bright)
    assert fids[0] < fids[1] < fids[2]


# --------------------------------------------------------------------------
# histogram decomposition


def test_histogram_fit_on_three_poisson_mixture():
    rng = np.random.default_rng(1)
    counts = np.concatenate([
        np.zeros(700, dtype=int),
        rng.poisson(10.0, 4500),
        rng.poisson(32.0, 4500)])
    fit = fit_photon_histogram(counts)
    assert abs(fit.means[0] - 0.0) <= 1.0
    assert abs(fit.means[1] - 10.0) <= 1.0
    assert abs(fit.means[2] - 32.0) <= 1.0
    assert fit.means[0] < fit.means[1] < fit.means[2]
    assert sum(fit.weights) == pytest.approx(1.0, abs=1e-9)
    assert min(fit.widths) > 0.0


def test_histogram_fit_on_simulated_readout(paper_record):
    cfg, rec = paper_record
    fit = fit_photon_histogram(rec.counts)
    assert abs(fit.means[1] - cfg.mean_dark) <= 1.0
    assert abs(fit.means[2] - cfg.mean_bright) <= 1.0
    # the zero-count component carries roughly the off-resonant fraction
    assert fit.weights[0] == pytest.approx(cfg.p_offres, abs=0.04)


@pytest.mark.parametrize("seed", [0, 7])
def test_histogram_zero_count_weight_at_lab_scale(seed):
    """At 60k alternating shots the zero-count component carries the off-resonant
    fraction, as it does at 10k shots."""
    cfg = SsrConfig(seed=seed)
    fit = fit_photon_histogram(simulate_ssr(cfg, "alternate", 60000).counts)
    assert fit.weights[0] == pytest.approx(cfg.p_offres, abs=0.01)


def test_histogram_fit_single_component_input():
    rng = np.random.default_rng(5)
    counts = np.clip(np.rint(rng.normal(20.0, 4.5, 6000)), 0, None)
    fit = fit_photon_histogram(counts)
    weights = sorted(fit.weights)
    assert weights[-1] >= 0.85
    assert weights[0] <= 0.1 and weights[1] <= 0.1


def test_histogram_fit_input_requirements():
    with pytest.raises(ValueError):
        fit_photon_histogram(np.arange(400))
    with pytest.raises(FitFailed):
        fit_photon_histogram(np.full(600, 7))
