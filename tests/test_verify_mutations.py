"""Mutation gate: every verify suite rejects a named wrong formula.

Each mutation puts one error into the code a suite runs: most replace one
expression in the source of one function, compile it in that function's
module and monkeypatch it in wherever the name is bound (its module, and
verify, which imports the checks by name). Under each, at least one row of
the suite must fail; a suite that passes a mutation cannot reject that
error (mutation testing: DeMillo, Lipton and Sayward, IEEE Computer 1978).

The el-bracket rows are left out: their residuals (5.8e-5 at most) sit
far under their 1e-3 tolerance, so they pass with u = 0 today. ROADMAP
item 19 gives them halving rows that separate the optimal control from a
wrong one.
"""

import dataclasses
import inspect
import textwrap
from functools import partial

import pytest

from fpf_lab import identities, verify
from fpf_lab.divergence import GENERATORS
from fpf_lab.fields import PolyVectorField


def _mutate(module, name, old, new, monkeypatch):
    """module.name compiled from its source with `old`, which must occur
    once, replaced by `new`, and set wherever the original is bound."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), inspect.getsourcefile(original),
                 "exec"), namespace)
    for target in (module, verify):
        if getattr(target, name, None) is original:
            monkeypatch.setattr(target, name, namespace[name])


def _double_kl_fpp(monkeypatch):
    kl = GENERATORS["kl"]
    monkeypatch.setitem(GENERATORS, "kl", dataclasses.replace(
        kl, fpp=lambda s: 2.0 * kl.fpp(s)))


_LM2_TERMS = ("_dot(_vm(k, hp), k)", "2.0 * _dot(gp, k) * div_k",
              "_dot(_vm(2.0 * k, jk), gp)", "p0 * div_k ** 2",
              "_dot(2.0 * p0[:, None] * grad_div_k, k)",
              "p0 * np.trace(jk @ jk, axis1=-2, axis2=-1)")

# name: (suite, apply(monkeypatch))
MUTATIONS = {
    "piola: cofactor rows in place of columns": ("piola", partial(
        _mutate, identities, "_piola_terms", "_minors(mats)",
        "_minors(mats.swapaxes(-1, -2))")),
    "appendixB: identity 6 without its slope term": ("appendixB", partial(
        _mutate, identities, "quadratic_term_identity",
        "(-0.5 * curvature_quad + 0.5 * slope_quad)",
        "(-0.5 * curvature_quad)")),
    "appendixB: identity 7 without its transport term": ("appendixB", partial(
        _mutate, identities, "quadratic_term_identity",
        "rhs = -transport.imag / CS_STEP", "rhs = np.zeros_like(lhs)")),
    "appendixB: identity 8 without its div-flux term": ("appendixB", partial(
        _mutate, identities, "quadratic_term_identity",
        "rhs = -div_flux.imag / CS_STEP", "rhs = np.zeros_like(lhs)")),
    **{f"lm2: rhs term {n + 1} dropped": ("lm2", partial(
        _mutate, identities, "_double_divergence_terms", term,
        f"0.0 * {term}")) for n, term in enumerate(_LM2_TERMS)},
    "taylor: K = 2 cov H": ("taylor", partial(
        _mutate, verify, "_dz_groups", "gains = _mv(", "gains = 2.0 * _mv(")),
    "lemmaD: the flux's sign flipped": ("lemmaD", partial(
        _mutate, identities, "weighted_poisson_derivative_check",
        "((c - s) / p_half)", "((s - c) / p_half)")),
    "poincare: the bounded-slope hypothesis not enforced": (
        "poincare", partial(_mutate, identities, "poincare_ratio_sweep",
                            "if slope_sup > 0.75 * q:", "if False:")),
    "el-invariance: kl's fpp scaled by 2": ("el-invariance", _double_kl_fpp),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_each_mutation_fails_a_row(monkeypatch, name):
    suite, apply = MUTATIONS[name]
    apply(monkeypatch)
    assert not all(row.passed for row in verify.run_suite(suite)), name


def _scaled_fields(groups, scale):
    """groups with the vector field each group holds second to last, v or
    K, scaled by `scale`."""
    def scaled(*args):
        return [(*head, PolyVectorField.stack(
            field.exponents, field.counts, scale * field.coeffs), x)
            for *head, field, x in groups(*args)]
    return scaled


@pytest.mark.parametrize("suite, groups, scale, name", [
    ("piola", "_piola_groups", 1e-14,
     "piola: cofactor rows in place of columns"),
    ("lm2", "_quadratic_groups", 1e-7, "lm2: rhs term 1 dropped")])
def test_relative_rows_fail_where_absolute_rows_cannot(monkeypatch, suite,
                                                       groups, scale, name):
    """With the displacement or gain scaled down until every term that
    cancels is below the absolute tolerance, the correct formula passes
    every row, and its mutation passes every absolute row but fails
    relative ones."""
    monkeypatch.setattr(verify, groups,
                        _scaled_fields(getattr(verify, groups), scale))
    assert all(row.passed for row in verify.run_suite(suite))
    MUTATIONS[name][1](monkeypatch)
    rows = verify.run_suite(suite)
    assert all(row.passed for row in rows if row.check == suite)
    assert not all(row.passed for row in rows
                   if row.check == f"{suite}-relative")
