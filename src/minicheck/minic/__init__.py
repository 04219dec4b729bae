"""MiniC frontend: parsing, control-flow graphs, constraint generation."""

from .syntax import (
    MiniCError,
    ParseError,
    SemanticError,
    Program,
    parse,
)
from .cfg import FuncCFG, NodeAssignment, build_cfgs, assign_node_ids
from .system import BuiltSystem, build_system

__all__ = [
    "MiniCError",
    "ParseError",
    "SemanticError",
    "Program",
    "parse",
    "FuncCFG",
    "NodeAssignment",
    "build_cfgs",
    "assign_node_ids",
    "BuiltSystem",
    "build_system",
]
