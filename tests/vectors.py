"""Sparse-vector helpers for the reference oracles in this directory.

Vectors are dicts {basis index: scalar}, as in jetalg.linalg.
"""

from fractions import Fraction
from typing import Mapping

from jetalg.linalg import vec_clean
from jetalg.scalars import scalar_is_zero

ONE = Fraction(1)


def vec_unit(i: int) -> dict:
    return {i: ONE}


def vec_iadd(acc: dict, v: Mapping, factor=None):
    for i, c in v.items():
        acc[i] = acc.get(i, 0) + (c if factor is None else factor * c)
    return acc


def vec_sub(u: Mapping, v: Mapping) -> dict:
    acc = dict(u)
    for i, c in v.items():
        acc[i] = acc.get(i, 0) - c
    return vec_clean(acc)


def vec_is_zero(v: Mapping) -> bool:
    return all(scalar_is_zero(c) for c in v.values())
