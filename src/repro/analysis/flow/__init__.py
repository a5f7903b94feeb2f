"""Interprocedural flow engine (``repro.analysis.flow``).

A whole-program layer on top of the per-module lint framework:

* :mod:`~repro.analysis.flow.project` — parse every module once, index
  functions/classes/methods, and infer lightweight types (annotations,
  ``self.attr = Constructor()`` assignments, module attributes);
* :mod:`~repro.analysis.flow.callgraph` — alias- and method-resolved
  call-graph construction, including ``self.`` dispatch and nested defs;
* :mod:`~repro.analysis.flow.taint` — per-function taint summaries
  (sources in → return/sink out, sanitizers) propagated to a fixpoint:
  rule **SEC001** (plaintext-to-sink, within and across functions);
* :mod:`~repro.analysis.flow.engine` — orchestration + timing.
"""

from repro.analysis.flow.engine import FlowEngine, FlowResult, flow_rule_catalog

__all__ = ["FlowEngine", "FlowResult", "flow_rule_catalog"]
