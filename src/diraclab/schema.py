"""Versioned JSON schemas for bundles, Dirac fibers and coisotropic data
(gfb-v1, df-v1, cd-v1).

Scalars serialize as exact "p/q" strings, matrices as row-major nested
arrays; dump -> load round trips preserve every scalar bit-exactly.
Coisotropic dumps reference their bundle dumps by content hash, and loaders
verify those hashes.

Only the CLI's dump and reduce commands load this module, and they import
it when they run; it imports at its top only linalg and courant.  The
gfb-v1 and cd-v1 loaders import their groupoid and coisotropic classes
themselves; the dumpers only read fields.  The JSON emitter every command
uses is serialize.dumps.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction

from .courant import DiracFiber, ThreeFormFiber, TwoFormFiber, lagrangian
from .linalg import DimensionMismatch, LinMap, canonicalize, frac


class SchemaError(ValueError):
    pass


@contextmanager
def _reading(schema: str, d):
    """Check that d is a document of the given schema, and turn a missing
    key, a field of the wrong shape or a scalar with a zero denominator
    inside the block into a SchemaError."""
    if not isinstance(d, dict):
        raise SchemaError(f"expected a {schema} object, got {type(d).__name__}")
    if d.get("schema") != schema:
        raise SchemaError(f"expected {schema}")
    try:
        yield
    except KeyError as e:
        raise SchemaError(f"{schema} document lacks the key {e}") from e
    except (TypeError, IndexError) as e:
        raise SchemaError(f"malformed {schema} document: {e}") from e
    except ZeroDivisionError as e:
        # Fraction("1/0") raises it, not a ValueError
        raise SchemaError(f"{schema} document has a scalar with a zero denominator") from e


def _count(x) -> int:
    """Every dimension and index field: an int that is not negative, where
    Python would also take a bool, a float, or a negative index that wraps."""
    if type(x) is not int or x < 0:
        raise SchemaError(f"expected a non-negative integer, got {x!r}")
    return x


def _flag(x) -> bool:
    if type(x) is not bool:
        raise SchemaError(f"expected a boolean, got {x!r}")
    return x


def _rows(x) -> list:
    """Every matrix and basis field: lists of lists; Python reads an object as its keys."""
    if type(x) is not list or any(type(row) is not list for row in x):
        raise SchemaError("expected a list of rows, each a list")
    return x


def scalar_to_json(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def matrix_to_json(m: LinMap) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[scalar_to_json(x) for x in r] for r in m.entries]}


def matrix_from_json(d: dict) -> LinMap:
    m = LinMap.from_rows(_rows(d["entries"]), cols=_count(d["cols"]))
    if m.rows != _count(d["rows"]):
        raise DimensionMismatch("row count mismatch")
    return m


def three_form_to_json(phi: ThreeFormFiber) -> dict:
    return {"dim": phi.dim,
            "coeffs": [[i, j, k, scalar_to_json(c)] for (i, j, k), c in phi.coeffs]}


def three_form_from_json(d: dict) -> ThreeFormFiber:
    return ThreeFormFiber.from_dict(
        _count(d["dim"]),
        {(_count(i), _count(j), _count(k)): frac(c) for i, j, k, c in d["coeffs"]})


def dirac_to_json(l: DiracFiber) -> dict:
    return {"n": l.n, "basis": [[scalar_to_json(x) for x in row]
                                for row in l.space.basis]}


def dirac_from_json(d: dict) -> DiracFiber:
    return lagrangian(canonicalize([[frac(x) for x in row] for row in _rows(d["basis"])],
                                   2 * _count(d["n"])))


def dirac_family_to_json(fibers) -> dict:
    return {"schema": "df-v1", "fibers": [dirac_to_json(l) for l in fibers]}


def dirac_family_from_json(d: dict) -> list[DiracFiber]:
    with _reading("df-v1", d):
        return [dirac_from_json(x) for x in d["fibers"]]


def bundle_to_json(b: GroupoidFiberBundle) -> dict:
    return {
        "schema": "gfb-v1",
        "name": b.name,
        "objects": [{"dim": o.dim, "adim": o.adim,
                     "rho": matrix_to_json(o.rho),
                     "sigma": matrix_to_json(o.sigma),
                     "phi": three_form_to_json(o.phi)} for o in b.objects],
        "arrows": [{"src": a.src, "tgt": a.tgt, "dim": a.dim,
                    "s_star": matrix_to_json(a.s_star),
                    "t_star": matrix_to_json(a.t_star),
                    "omega": matrix_to_json(a.omega.matrix) if a.omega else None,
                    "left": matrix_to_json(a.left),
                    "right": matrix_to_json(a.right),
                    "unit": a.unit,
                    "u_star": matrix_to_json(a.u_star) if a.u_star else None}
                   for a in b.arrows],
        "pairs": [{"g": p.g, "h": p.h, "gh": p.gh,
                   "m_star": matrix_to_json(p.m_star)} for p in b.pairs],
    }


def bundle_from_json(d: dict) -> GroupoidFiberBundle:
    from .groupoid import (ArrowFiber, ComposablePairFiber, GroupoidFiberBundle,
                           ObjectFiber, pair_tangent)
    with _reading("gfb-v1", d):
        objects = tuple(ObjectFiber(_count(o["dim"]), _count(o["adim"]),
                                    matrix_from_json(o["rho"]),
                                    matrix_from_json(o["sigma"]),
                                    three_form_from_json(o["phi"]))
                        for o in d["objects"])
        arrows = tuple(ArrowFiber(
            _count(a["src"]), _count(a["tgt"]), _count(a["dim"]),
            matrix_from_json(a["s_star"]), matrix_from_json(a["t_star"]),
            TwoFormFiber(matrix_from_json(a["omega"])) if a["omega"] else None,
            matrix_from_json(a["left"]), matrix_from_json(a["right"]),
            unit=_flag(a["unit"]),
            u_star=matrix_from_json(a["u_star"]) if a["u_star"] else None)
            for a in d["arrows"])
        pairs = []
        for p in d["pairs"]:
            g, h, gh = _count(p["g"]), _count(p["h"]), _count(p["gh"])
            tang = pair_tangent(arrows[g], arrows[h])
            pairs.append(ComposablePairFiber(g, h, gh, tang,
                                             matrix_from_json(p["m_star"])))
        return GroupoidFiberBundle(objects, arrows, tuple(pairs), name=d["name"])


def content_hash(doc: dict) -> str:
    import hashlib   # loads OpenSSL, so only the commands that hash pay for it
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def morphism_to_json(m: MorphismFiber) -> dict:
    return {"obj_map": list(m.obj_map),
            "c0": [matrix_to_json(x) for x in m.c0],
            "cA": [matrix_to_json(x) for x in m.cA],
            "arrow_map": list(m.arrow_map),
            "c1": [matrix_to_json(x) for x in m.c1]}


def morphism_from_json(d: dict, dom: GroupoidFiberBundle,
                       cod: GroupoidFiberBundle) -> MorphismFiber:
    from .groupoid import MorphismFiber
    return MorphismFiber(dom, cod, tuple(map(_count, d["obj_map"])),
                         tuple(matrix_from_json(x) for x in d["c0"]),
                         tuple(matrix_from_json(x) for x in d["cA"]),
                         tuple(map(_count, d["arrow_map"])),
                         tuple(matrix_from_json(x) for x in d["c1"]))


def datum_to_json(datum: CoisotropicDatum) -> dict:
    c_doc = bundle_to_json(datum.c_bundle)
    g_doc = bundle_to_json(datum.g_bundle)
    return {
        "schema": "cd-v1",
        "name": datum.name,
        "c_bundle": c_doc,
        "g_bundle": g_doc,
        "c_bundle_hash": content_hash(c_doc),
        "g_bundle_hash": content_hash(g_doc),
        "morphism": morphism_to_json(datum.morphism),
        "dirac": dirac_family_to_json(datum.dirac),
    }


def datum_from_json(d: dict) -> CoisotropicDatum:
    from .coisotropic import CoisotropicDatum
    with _reading("cd-v1", d):
        if content_hash(d["c_bundle"]) != d["c_bundle_hash"]:
            raise SchemaError("c_bundle content hash mismatch")
        if content_hash(d["g_bundle"]) != d["g_bundle_hash"]:
            raise SchemaError("g_bundle content hash mismatch")
        dom = bundle_from_json(d["c_bundle"])
        cod = bundle_from_json(d["g_bundle"])
        morph = morphism_from_json(d["morphism"], dom, cod)
        dirac = tuple(dirac_family_from_json(d["dirac"]))
        return CoisotropicDatum(morph, dirac, name=d["name"])
