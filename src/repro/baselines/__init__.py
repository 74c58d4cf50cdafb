"""Baseline protocols the paper compares against (or improves upon)."""

from .base import BaselineResult
from .flin_mittal import flin_mittal_proto, run_flin_mittal
from .greedy_binary_search import greedy_binary_search_proto, run_greedy_binary_search
from .naive import naive_exchange_proto, run_naive_exchange
from .one_round_sparsify import (
    ack_list_size,
    one_round_sparsify_proto,
    run_one_round_sparsify,
)
from .vizing_gather import run_vizing_gather, vizing_gather_proto

__all__ = [
    "BaselineResult",
    "ack_list_size",
    "flin_mittal_proto",
    "greedy_binary_search_proto",
    "naive_exchange_proto",
    "one_round_sparsify_proto",
    "run_flin_mittal",
    "run_greedy_binary_search",
    "run_naive_exchange",
    "run_one_round_sparsify",
    "run_vizing_gather",
    "vizing_gather_proto",
]
