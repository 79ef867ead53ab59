"""Where the traced run hooks into hilbfock, and the per-layer metrics.

Only public entry points are wrapped.  Memo caches and the sample store are
read as attributes once an outermost call has returned; nothing private is
wrapped.  The layers are the package modules.
"""

from __future__ import annotations

import hilbfock
from hilbfock import affine, cli, fock, operators, segre, series, surface, verify

from tracer import Tracer
from workloads import SUITE_FUNCS

LAYERS = ("surface", "fock", "operators", "segre", "series", "affine", "verify", "cli")

#: The five OperatorEngine memo caches, by the short name used in metrics.
MEMOS = {"q": "_q_cache", "L": "_L_cache", "qp": "_qp_cache", "b": "_b_cache", "qd": "_qd_cache"}

_MODULES = (hilbfock, surface, fock, operators, segre, series, affine, verify, cli)


def _per_layer_spec():
    s, c, r = "s", "count", "ratio"
    spec = [
        ("operators.big_c_apply.busy_s", s, "lower"),
        ("operators.big_c_apply.top_step_s", s, "lower"),
        ("operators.big_c_apply.terms_in", c, "lower"),
        ("operators.big_c_apply.terms_out", c, "lower"),
    ]
    spec += [("operators.memo_entries." + k, c, "lower") for k in MEMOS]
    for op in ("q", "virasoro", "q_derivative", "boundary"):
        spec += [("operators.%s.calls" % op, c, "lower"), ("operators.%s.busy_s" % op, s, "lower")]
    spec += [
        ("fock.vectors_built", c, "lower"),
        ("fock.pairing.calls", c, "lower"),
        ("fock.pairing.busy_s", s, "lower"),
        ("fock.dimension.busy_s", s, "lower"),
        ("fock.integrate_hilb.calls", c, "lower"),
        ("surface.new_model.calls", c, "lower"),
        ("surface.new_model.busy_s", s, "lower"),
        ("surface.mul.calls", c, "lower"),
        ("surface.mul.busy_s", s, "lower"),
        ("segre.segre_series.calls", c, "lower"),
        ("segre.segre_series.busy_s", s, "lower"),
        ("segre.solve.busy_s", s, "lower"),
        ("segre.solve.n7_s", s, "lower"),
        ("segre.solve.cells", c, "lower"),
        ("segre.sampler.load_s", s, "lower"),
        ("segre.sampler.records_loaded", c, "lower"),
        ("segre.sampler.hit_ratio", r, "higher"),
        ("segre.sampler.store_s", s, "lower"),
        ("segre.sampler.records_written", c, "lower"),
        ("segre.dm.busy_s", s, "lower"),
        ("series.conjecture.calls", c, "lower"),
        ("series.conjecture.busy_s", s, "lower"),
        ("series.log.busy_s", s, "lower"),
        ("series.pow.busy_s", s, "lower"),
        ("series.revert.busy_s", s, "lower"),
        ("affine.generation.busy_s", s, "lower"),
        ("affine.d_op.calls", c, "lower"),
    ]
    for suite in SUITE_FUNCS:
        spec += [("verify.%s.busy_s" % suite, s, "lower"), ("verify.%s.checks" % suite, c, "higher")]
    spec += [
        ("cli.main.calls", c, "lower"),
        ("cli.main.busy_s", s, "lower"),
        ("cli.main.nonzero_exits", c, "lower"),
    ]
    spec += [("%s.self_s" % layer, s, "lower") for layer in LAYERS]
    spec.append(("trace.overhead_s", s, "lower"))
    return spec


#: (name, unit, better) of every metric a traced run reports.
PER_LAYER = _per_layer_spec()


def install(tr: Tracer) -> None:
    """Wrap the entry points of every layer; ``tr.uninstall()`` undoes it."""
    mods = _MODULES
    engines = []
    last_step = [0.0]

    def harvest():
        # the largest size each cache reached in any engine of the run
        for eng in engines:
            for k, attr in MEMOS.items():
                key = "operators.memo_entries." + k
                tr.counters[key] = max(tr.counters.get(key, 0), len(getattr(eng, attr)))
        engines.clear()

    tr.on_idle.append(harvest)

    # -- surface / fock: counts and the functions other layers call by name
    tr.patch_function(mods, surface.new_model, "surface.new_model")
    tr.patch_method(surface.SurfaceModel, "mul", "surface.mul")
    tr.patch_function(mods, fock.pairing, "fock.pairing")
    tr.patch_function(mods, fock.dimension, "fock.dimension")
    tr.patch_function(mods, fock.integrate_hilb, "fock.integrate_hilb")
    vec_init = fock.FockVector.__init__

    def counted_vec_init(self, terms=None):
        tr.add("fock.vectors_built")
        vec_init(self, terms)

    tr.replace_method(fock.FockVector, "__init__", counted_vec_init)

    # -- operators
    eng_init = operators.OperatorEngine.__init__

    def registered_eng_init(self, model):
        eng_init(self, model)
        engines.append(self)

    tr.replace_method(operators.OperatorEngine, "__init__", registered_eng_init)
    for op in ("q", "virasoro", "q_derivative", "boundary"):
        tr.patch_method(operators.OperatorEngine, op, "operators." + op)

    def big_c_after(_tok, args, _kw, result, dur):
        tr.add("operators.big_c_apply.terms_in", len(args[2].terms))
        tr.add("operators.big_c_apply.terms_out", len(result.terms))
        last_step[0] = dur

    tr.patch_method(
        operators.OperatorEngine, "big_c_apply", "operators.big_c_apply", after=big_c_after
    )

    # -- segre
    def series_after(_tok, _args, _kw, _result, _dur):
        # the last weight step of a chain is its top step
        tr.add("operators.big_c_apply.top_step_s", last_step[0])
        last_step[0] = 0.0

    tr.patch_function(mods, segre.segre_series, "segre.segre_series", after=series_after)
    tr.patch_function(mods, segre.segre_polynomial, "segre.polynomial")
    n7_unknowns = len(segre.support_monomials(7))

    def solve_after(_tok, args, _kw, _result, dur):
        rows = args[0]
        tr.add("segre.solve.cells", len(rows) * len(rows[0]))
        if len(rows[0]) == n7_unknowns:
            tr.add("segre.solve.n7_s", dur)

    tr.patch_function(mods, segre.solve_overdetermined, "segre.solve", after=solve_after)
    tr.patch_function(mods, segre.dm_coefficients, "segre.dm")
    tr.patch_function(mods, segre.fit_dm_linear, "segre.dm")

    sampler_cls = segre.Sampler
    tr.patch_method(
        sampler_cls,
        "__init__",
        "segre.sampler.load",
        after=lambda _t, args, _k, _r, _d: tr.add("segre.sampler.records_loaded", len(args[0]._mem)),
    )

    def store_before(self, n, params, value):
        return (n, params) not in self._mem

    def store_after(is_new, *_):
        if is_new:
            tr.add("segre.sampler.records_written")

    tr.patch_method(sampler_cls, "store", "segre.sampler.store", before=store_before, after=store_after)
    in_request = [False]

    def counting(method, wanted):
        # counts values requested and values already held, outermost request only
        def request(self, n, params):
            if in_request[0]:
                return method(self, n, params)
            keys = wanted(n)
            tr.add("segre.sampler.requested", len(keys))
            tr.add("segre.sampler.hits", sum((j, params) in self._mem for j in keys))
            in_request[0] = True
            try:
                return method(self, n, params)
            finally:
                in_request[0] = False

        return request

    tr.replace_method(sampler_cls, "value", counting(sampler_cls.value, lambda n: (n,)))
    tr.replace_method(sampler_cls, "series", counting(sampler_cls.series, lambda n: range(n + 1)))

    # -- series
    tr.patch_function(mods, series.conjecture_series, "series.conjecture")
    for op in ("log", "pow", "revert"):
        tr.patch_method(series.PowerSeries, op, "series." + op)

    # -- affine
    tr.patch_function(mods, affine.generation_check, "affine.generation")
    tr.patch_function(mods, affine.d_op, "affine.d_op")

    # -- verify
    def suite_after(suite):
        def after(_tok, _args, _kw, report, _dur):
            tr.add("verify.%s.checks" % suite, report["checks"])

        return after

    for suite, func in SUITE_FUNCS.items():
        tr.patch_function(mods, getattr(verify, func), "verify." + suite, after=suite_after(suite))

    # -- cli
    def main_after(_tok, _args, _kw, code, _dur):
        if code != 0:
            tr.add("cli.main.nonzero_exits")

    tr.patch_function(mods, cli.main, "cli.main", after=main_after)


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric, by name, from a finished traced run."""
    values = {}
    for name, _unit, _better in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tr.stat(head)[0]
        elif field == "busy_s":
            values[name] = tr.stat(head)[1]
        elif field == "self_s":
            values[name] = tr.layer_self_time(head)
        elif name == "segre.sampler.load_s":
            values[name] = tr.stat("segre.sampler.load")[1]
        elif name == "segre.sampler.store_s":
            values[name] = tr.stat("segre.sampler.store")[1]
        elif name == "segre.sampler.hit_ratio":
            requested = tr.counters.get("segre.sampler.requested", 0)
            values[name] = tr.counters.get("segre.sampler.hits", 0) / requested if requested else 0.0
        elif name != "trace.overhead_s":
            values[name] = tr.counters.get(name, 0)
    return values
