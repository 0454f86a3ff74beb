"""A GS-style data stream management system (the paper's host substrate).

The paper evaluates forward decay inside GS (Gigascope), AT&T's production
network-stream database.  This subpackage is a from-scratch Python analogue
exercising the same code paths the experiments measure:

* :mod:`repro.dsms.schema` / :mod:`repro.dsms.expressions` — typed streams
  and compiled scalar expressions;
* :mod:`repro.dsms.parser` — the GSQL-like dialect (SELECT / FROM / WHERE /
  GROUP BY with expressions, aggregates and UDAFs);
* :mod:`repro.dsms.udaf` — the UDAF mechanism plus builtin aggregates and
  adapters for every summary/sampler in the library;
* :mod:`repro.dsms.engine` — two-level (partial + super) aggregation with
  a fixed-size low-level hash table, tumbling time buckets;
* :mod:`repro.dsms.runtime` — stream-rate simulation, CPU-load accounting
  and load shedding.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".schema": ("Schema", "Field", "FieldType"),
        ".expressions": (
            "Expression", "Column", "Literal", "BinaryOp", "UnaryOp", "Comparison",
            "BooleanOp", "FunctionCall",
        ),
        ".parser": ("Query", "SelectItem", "GroupItem", "AggregateCall", "parse_query"),
        ".udaf": ("Udaf", "UdafRegistry", "default_registry"),
        ".engine": ("QueryEngine", "run_query"),
        ".runtime": (
            "LoadSheddingRuntime", "LoadReport", "cpu_load_percent",
        ),
    },
)
