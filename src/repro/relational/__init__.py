"""Relational frontend: algebra, expressions, SQL subset, translation, engine."""

from repro.relational.algebra import (
    AggSpec,
    Filter,
    GroupBy,
    Join,
    KeySpec,
    Map,
    Plan,
    Query,
    Scan,
    SemiJoin,
)
from repro.relational.config import EngineConfig
from repro.relational.engine import QueryResult, ResultTable, VoodooEngine
from repro.relational.expressions import (
    Arith,
    Cast,
    Cmp,
    Col,
    Expr,
    IfThenElse,
    InSet,
    Lit,
    Membership,
    Not,
    Param,
    ScalarOf,
)
from repro.relational.prepared import PreparedQuery
from repro.relational.sql import parse_sql
from repro.relational.translate import Translator

__all__ = [
    "AggSpec", "Filter", "GroupBy", "Join", "KeySpec", "Map", "Plan", "Query",
    "Scan", "SemiJoin", "QueryResult", "ResultTable", "VoodooEngine",
    "EngineConfig", "PreparedQuery",
    "Arith", "Cast", "Cmp", "Col", "Expr", "IfThenElse", "InSet", "Lit",
    "Membership", "Not", "Param", "ScalarOf", "parse_sql", "Translator",
]
