"""Sampling under forward decay (Section V of the paper).

* :mod:`repro.sampling.reservoir` — unweighted reservoir sampling (the
  undecayed baseline, Vitter's Algorithm R);
* :mod:`repro.sampling.with_replacement` — Theorem 5's constant-space
  with-replacement sampler for any forward decay function;
* :mod:`repro.sampling.weighted_reservoir` — Efraimidis-Spirakis weighted
  reservoir (A-Res);
* :mod:`repro.sampling.priority` — priority sampling with unbiased
  subset-sum estimation;
* :mod:`repro.sampling.aggarwal` — Aggarwal's biased reservoir, the prior
  art for exponential-decay sampling that Corollary 1 improves on;
* :mod:`repro.sampling.estimators` — estimating decayed aggregates from
  samples, plus distribution-test helpers.

Every sampler draws from a :class:`~repro.core.keyed_random.KeyedRandom`,
a generator whose whole serialized state is ``(key, words drawn)``; the
``rng=`` each constructor takes is used as is when it is one, and asked
once for a 63-bit key otherwise.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.keyed_random": ("KeyedRandom",),
        ".reservoir": ("ReservoirSampler",),
        ".with_replacement": ("DecayedSamplerWithReplacement",),
        ".weighted_reservoir": ("WeightedReservoirSampler", "decayed_log_weight"),
        ".priority": ("PrioritySampler", "PrioritySample", "estimate_decayed_sum"),
        ".aggarwal": ("AggarwalBiasedReservoir",),
        ".estimators": (
            "estimate_decayed_mean", "empirical_frequencies",
            "expected_forward_probabilities", "chi_square_statistic",
        ),
    },
)
