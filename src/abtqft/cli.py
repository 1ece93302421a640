"""Command-line front end.

Subcommands: `group` (exact abelian-group computations), `cat` (monoidal
categories, homotopy fibers, the comparison functor), `geo` (discrete
geometry), `bnr` (the invariant pipelines) and `suite` (acceptance).
Inputs are JSON files merged into a named workspace; all floating-point
output uses fixed 12-significant-digit formatting so runs are
byte-reproducible.  Each handler imports the layers it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import SIGN_CONVENTION, __version__
from .reader import Node, ShapeError


class InputError(ValueError):
    """A problem with an input file; exits with code 2."""


def fmt(x):
    """Fixed 12-significant-digit float rendering."""
    return f"{x:.12g}"


# -- workspace ---------------------------------------------------------------

@contextmanager
def _blame(path, rec=None):
    """Blame the file `path` for each input fault raised inside: a
    `ValueError` exits 2 as `path: ...`, and as `path: REC: ...` when it
    is a fault of the value of the record `rec` rather than of a field's
    shape, which already names its JSON path.  Any other fault (an
    `ArithmeticError` of a computation) passes through and exits 1."""
    try:
        yield
    except InputError:
        raise
    except ValueError as exc:
        where = (path if rec is None or isinstance(exc, ShapeError)
                 else f"{path}: {rec.path}")
        raise InputError(f"{where}: {exc}")


class _Names(dict):
    """A workspace table, filled from `files[-1]`, the file being loaded:
    a name one file defined, no other file may define."""

    def __init__(self, files):
        super().__init__()
        self.files, self.defined_in = files, {}

    def __setitem__(self, name, value):
        path = self.files[-1]
        first = self.defined_in.setdefault(name, path)
        if not os.path.samefile(first, path):
            raise ValueError(f"{name!r} is already defined by {first}")
        super().__setitem__(name, value)


class Workspace:
    """Named registry of objects loaded from JSON files.

    Name references are resolved at load time; a dangling reference
    aborts with the offending file and name.  Anonymous inline groups
    are interned by presentation so identical specs in different files
    yield one group, letting their morphisms compose.  `order` lists the
    morphism names in load order, and `inputs` every file read through
    `read_json` (the loaded files, meshes, cochains and connections).
    """

    def __init__(self):
        self.inputs = []
        self.files = []
        self.groups = _Names(self.files)
        self.morphisms = _Names(self.files)
        self.squares = _Names(self.files)
        self.fills = _Names(self.files)
        self.matrices = _Names(self.files)
        self.scenes = _Names(self.files)
        self.order = []
        self._interned = {}

    def read_json(self, path):
        """The document of the JSON file `path`, as a reader `Node`."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = Node(json.load(fh))
        except FileNotFoundError:
            raise ValueError("no such file")
        except OSError as exc:
            raise ValueError(f"cannot read ({exc.strerror or exc})")
        except ValueError as exc:
            # bad JSON, bytes that are not UTF-8 or an over-long integer
            raise ValueError(f"invalid JSON ({exc})")
        except RecursionError:
            raise ValueError("invalid JSON (nested too deeply)")
        if path not in self.inputs:
            self.inputs.append(path)
        return doc

    def load_file(self, path):
        self.files.append(path)
        with _blame(path):
            self._ingest(path, self.read_json(path))

    def _ingest(self, path, doc):
        stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        if doc.is_list():
            self.matrices[stem] = doc.matrix()
            return
        if doc.has("m3") or doc.has("union") or doc.has("su"):
            self.scenes[stem] = (path, doc)
            return
        tables = {table: doc.field(table, {}).items()
                  for table in ("groups", "morphisms", "squares", "fills")}
        for name, rec in tables["groups"]:
            self.groups[name] = self._group(path, rec, name)
        for name, rec in tables["morphisms"]:
            self._add_morphism(name, self._morphism(path, rec, name))
        for name, rec in tables["squares"]:
            self.squares[name] = self._square(path, rec)
        for name, rec in tables["fills"]:
            self.fills[name] = self._fill(path, rec)
        if doc.has("generators"):
            self.groups[stem] = self._group(path, doc, stem)
        elif doc.has("matrix") and doc.has("source"):
            self._add_morphism(stem, self._morphism(path, doc, stem))
        elif doc.has("matrix"):
            self.matrices[stem] = doc.field("matrix").matrix()
        elif doc.has("phi_H"):
            self.squares[stem] = self._square(path, doc)
        elif doc.has("lambda"):
            self.fills[stem] = self._fill(path, doc)

    def _add_morphism(self, name, mor):
        self.morphisms[name] = mor
        self.order.append(name)

    def _resolve(self, path, ref, kind):
        """The group or morphism that `ref` names, or that its record
        defines."""
        if not isinstance(ref.value, str):
            return (self._group(path, ref) if kind == "group"
                    else self._morphism(path, ref))
        table = self.groups if kind == "group" else self.morphisms
        if ref.value not in table:
            raise ValueError(f"{ref.path}: unknown {kind} name "
                             f"{ref.value!r}")
        return table[ref.value]

    def _group(self, path, rec, name=None):
        """The group of `rec`, interned by presentation if anonymous."""
        from . import fgab
        with _blame(path, rec):
            G = fgab.group_from_json(rec, name)
        if name is not None:
            return G
        return self._interned.setdefault((G.n_generators, G.relations), G)

    def _morphism(self, path, rec, name=None):
        from . import fgab
        src, tgt = (self._resolve(path, rec.field(end), "group")
                    for end in ("source", "target"))
        with _blame(path, rec):
            return fgab.morphism_from_json(rec, src, tgt, name=name)

    def _square(self, path, rec):
        from . import moncat
        legs = {leg: self._resolve(path, rec.field(leg), "morphism")
                for leg in ("phi_H", "phi_G", "f_ob", "f_mor")}
        with _blame(path, rec):
            return moncat.CommSquare(**legs)

    def _fill(self, path, rec):
        # a fill names no square: it is checked against one when used
        return path, rec, self._resolve(path, rec.field("lambda"), "morphism")

    def sole(self, table, kind, name=None):
        if name is not None:
            if name not in table:
                raise InputError(f"no {kind} named {name!r} in the loaded "
                                 f"files {self.files}")
            return table[name]
        if len(table) != 1:
            raise InputError(
                f"expected exactly one {kind} in {self.files}, "
                f"found {sorted(table)}")
        return next(iter(table.values()))


def _parse_element(group, text):
    """The element of `group` with the comma-separated coordinates `text`."""
    try:
        coords = [int(t) for t in str(text).split(",")]
    except ValueError:
        raise ValueError(f"coordinates {text!r} must be comma-separated "
                         "integers")
    if len(coords) != group.n_generators:
        raise ValueError(f"{len(coords)} coordinates {text!r} for a group "
                         f"with {group.n_generators} generators")
    return group.element(coords)


def _gen_text(gens):
    """Generator columns as "(a,b); (c,d)"."""
    return "; ".join("(" + ",".join(map(str, t)) + ")" for t in gens)


def _columns(f):
    """The columns of the matrix of the group morphism f, as lists."""
    from .intmat import transpose
    return [list(c) for c in transpose(f.matrix, f.source.n_generators)]


def _load_mesh(ws, ref):
    from .discrete import CellComplex, surfaces
    with _blame(ref):
        if ref.startswith("builtin:"):
            return surfaces.build_mesh(ref.split(":", 1)[1])
        stem = ref.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        return CellComplex.from_json(ws.read_json(ref), stem)


# -- group subcommands -------------------------------------------------------

def cmd_group_smith(args, ws):
    from . import intmat
    M = ws.sole(ws.matrices, "matrix", args.name)
    s = intmat.smith(M, 0)      # a JSON [] has no columns either
    U, V = ([list(r) for r in rows] for rows in (s.u_rows(), s.v_rows()))
    lines = [f"D = diag({','.join(map(str, s.diag))})", f"U = {U}", f"V = {V}"]
    return lines, {"diag": s.diag, "U": U, "V": V}


def cmd_group_kernel(args, ws):
    from . import fgab
    f = ws.sole(ws.morphisms, "morphism", args.name)
    K, incl = fgab.kernel(f)
    rows = [list(r) for r in incl.matrix]
    return ([f"ker = {K.describe()}", f"incl = {rows}"],
            {"kernel": K.describe(), "incl": rows})


def cmd_group_cokernel(args, ws):
    from . import fgab
    f = ws.sole(ws.morphisms, "morphism", args.name)
    C = fgab.cokernel(f)
    return [f"coker = {C.describe()}"], {"cokernel": C.describe()}


def cmd_group_image(args, ws):
    from . import fgab
    f = ws.sole(ws.morphisms, "morphism", args.name)
    I, _ = fgab.image(f)
    return [f"image = {I.describe()}"], {"image": I.describe()}


def cmd_group_iso(args, ws):
    from . import fgab
    f = ws.sole(ws.morphisms, "morphism", args.name)
    ok = fgab.is_isomorphism(f)
    return ["true" if ok else "false"], {"isomorphism": ok}


def cmd_group_pullback(args, ws):
    from . import fgab
    names = ws.order
    if len(names) < 2:
        raise InputError("pullback needs two morphisms (two files or a "
                         "workspace defining two)")
    f, g = ws.morphisms[names[0]], ws.morphisms[names[1]]
    with _blame(", ".join(ws.files)):
        pb = fgab.pullback(f, g)
    gens = _columns(pb.incl)
    return ([f"P = {pb.group.describe()}, gen {_gen_text(gens)}"],
            {"group": pb.group.describe(), "generators": gens})


def cmd_group_solve(args, ws):
    from . import fgab
    f = ws.sole(ws.morphisms, "morphism", args.name)
    with _blame(f"{', '.join(ws.files)}: argument rhs"):
        y = _parse_element(f.target, args.rhs)
    x = fgab.solve(f, y)
    if x is None:
        return ["absent"], {"solution": None}
    return ([f"x = ({','.join(map(str, x.coords))})"],
            {"solution": list(x.coords)})


# -- cat subcommands ---------------------------------------------------------

def cmd_cat_hom(args, ws):
    from . import moncat
    phi = ws.sole(ws.morphisms, "morphism", args.name)
    cat = moncat.MorTensorCat(phi)
    with _blame(f"{args.files[0]}: argument a"):
        a = _parse_element(cat.obj_group, args.a)
    with _blame(f"{args.files[0]}: argument b"):
        b = _parse_element(cat.obj_group, args.b)
    hs = cat.hom(a, b)
    if hs.is_empty:
        return ["empty"], {"status": "empty"}
    part = list(hs.particular.coords)
    gens = [list(g.coords) for g in hs.kernel_generators]
    lines = [f"particular = ({','.join(map(str, part))})",
             f"kernel generators = {gens}"]
    data = {"status": "nonempty", "particular": part,
            "kernel_generators": gens}
    if args.oracle:
        from .testing import brute_hom_set, oracle_skip
        if skip := oracle_skip({"A_mor": cat.mor_group}, cat.obj_group):
            lines.append(f"oracle: {skip}")
        else:
            agrees = hs.element_keys() == brute_hom_set(phi, a, b)
            lines.append(f"oracle: {'agrees' if agrees else 'DISAGREES'}")
            data["oracle"] = agrees
            if not agrees:
                raise AssertionError("hom-set oracle disagreement")
    return lines, data


def cmd_cat_hofiber(args, ws):
    from . import moncat
    square = ws.sole(ws.squares, "square", args.square)
    fiber = moncat.HofibCat(square)
    gens = _columns(fiber.pullback.incl)
    return ([f"object group = {fiber.object_group.describe()}",
             f"pair generators = {gens}"],
            {"object_group": fiber.object_group.describe(),
             "pair_generators": gens})


def cmd_cat_xi(args, ws):
    from . import moncat
    square = ws.sole(ws.squares, "square", args.square)
    path, rec, lam = ws.sole(ws.fills, "fill", args.fill)
    with _blame(path, rec):
        fill = moncat.DiagonalFill(square, lam)
    xi = moncat.XiFunctor(moncat.HofibCat(square), fill)
    equiv = moncat.xi_is_equivalence(square, fill)
    gens = _columns(xi.kernel_incl)
    lines = [f"equivalence: {'true' if equiv else 'false'}; "
             f"target: ker = {xi.kernel_group.describe()} "
             f"(gen {_gen_text(gens)})"]
    data = {"equivalence": equiv, "kernel": xi.kernel_group.describe(),
            "kernel_generators": gens}
    if args.oracle:
        from .testing import oracle_skip
        if skip := oracle_skip(xi.enumerated):
            lines.append(f"oracle: {skip}")
        else:
            slow = moncat.xi_equivalence_by_enumeration(square, fill)
            lines.append(f"oracle: {'agrees' if slow == equiv else 'DISAGREES'}")
            data["oracle"] = slow
            if slow != equiv:
                raise AssertionError("equivalence oracle disagreement")
    return lines, data


# -- geo subcommands ---------------------------------------------------------

def cmd_geo_stokes(args, ws):
    from .discrete import Cochain, check_stokes
    mesh = _load_mesh(ws, args.mesh)
    with _blame(args.cochain):
        omega = Cochain.from_json(mesh, ws.read_json(args.cochain))
        lhs, rhs = check_stokes(mesh, omega)
    lines = [f"boundary integral = {fmt(lhs)}",
             f"bulk integral of d(omega) = {fmt(rhs)}",
             f"gap = {fmt(abs(lhs - rhs))}"]
    return lines, {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}


def _geo_connection(args, ws):
    from .discrete import LatticeConnection, tangent_connection
    mesh = _load_mesh(ws, args.mesh)
    if args.connection == "tangent":
        with _blame(args.mesh):
            bundle = tangent_connection(mesh)
        return bundle.dual, bundle.connection
    with _blame(args.connection):
        return mesh, LatticeConnection.from_json(
            mesh, ws.read_json(args.connection))


def cmd_geo_holonomy(args, ws):
    from .discrete import holonomy
    complex_, conn = _geo_connection(args, ws)
    if args.loop is None:
        where = f"{args.mesh}: default loop, every edge once (pass --loop)"
    else:
        where = f"{args.mesh}: --loop {args.loop}"
    with _blame(where):
        chain = (complex_.fundamental_chain(1) if args.loop is None
                 else complex_.chain_vector(1, _parse_loop(args.loop)))
        value = holonomy(conn, chain)
    return ([f"holonomy = exp(2*pi*i * {fmt(value)})"], {"turns": value})


def _parse_loop(text):
    chain = []
    for token in text.split(","):
        token = token.strip()
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
        elif token.startswith("+"):
            token = token[1:]
        try:
            chain.append((int(token), sign))
        except ValueError:
            raise ValueError(f"bad loop token {token!r}")
    return chain


def cmd_geo_chern(args, ws):
    from .discrete import chern_number
    complex_, conn = _geo_connection(args, ws)
    chain = [(f, 1) for f in range(complex_.n_cells[2])]
    with _blame(args.mesh):
        c = chern_number(conn, chain)
    return [str(c)], {"chern": c}


# -- bnr subcommands ---------------------------------------------------------

BUILTIN_SCENES = ["empty", "s3-lie"]


def cmd_bnr_psi(args, ws):
    from .invariants import BnrScene, psi
    if args.builtin:
        builtin = {"s3-lie": BnrScene.s3_lie, "empty": BnrScene.empty}
        scene = builtin[args.builtin]()
    else:
        path, doc = ws.sole(ws.scenes, "scene")
        with _blame(path):
            scene = BnrScene.from_json(doc)
    result = psi(scene, certify=args.certify)
    lines = [result.render()]
    for entry in result.certificate:
        lines.append(
            f"certificate: {entry['component']} {entry['bounding']} "
            f"int={entry['integer']} diff={entry['difference']}")
    return lines, {"raw": result.raw, "integer": result.integer_value,
                   "residue": result.residue, "modulus": 24,
                   "convention": result.convention,
                   "certificate": result.certificate}


def cmd_bnr_su(args, ws):
    from .invariants import SuScene, su_psi
    path, doc = ws.sole(ws.scenes, "scene")
    with _blame(path):
        scene = SuScene.from_json(doc)
    result = su_psi(scene)
    lines = [result.render()]
    for entry in result.certificate:
        lines.append(
            f"certificate: {entry['bounding']} ({entry['kind']}) "
            f"int={entry['integer']} diff={entry['difference']}"
            + ("" if entry["in_hypothesis"] else " [out-of-hypothesis]"))
    return lines, {"raw": result.raw, "integer": result.integer_value,
                   "residue": result.residue, "modulus": 2,
                   "certificate": result.certificate}


def cmd_bnr_cs(args, ws):
    from .invariants import cs_su2_quadrature, sphere_volume_quadrature
    value = cs_su2_quadrature(args.refine)
    vol = sphere_volume_quadrature(args.refine)
    return ([f"cs = {fmt(value)}", f"sphere volume = {fmt(vol)}"],
            {"cs": value, "volume": vol, "refinement": args.refine})


def cmd_bnr_table(args, ws):
    from .invariants import shipped_table
    # shipped_table() validates the table when it loads it
    entries = shipped_table().values()
    lines = [f"{e.name}: p1={e.integral_p1} sig={e.signature} "
             f"a_hat={e.a_hat} {'spin' if e.spin else 'oriented'}"
             for e in entries]
    lines.append("valid")
    return lines, {"entries": [e.to_json() for e in entries], "valid": True}


def cmd_suite(args, ws):
    from . import acceptance
    lines = []
    ok = acceptance.run_all(out=lines.append)
    return lines, {"pass": ok}


# -- main --------------------------------------------------------------------

def refinement_level(text):
    from .invariants import MAX_REFINEMENT
    value = int(text)
    if not 1 <= value <= MAX_REFINEMENT:
        raise argparse.ArgumentTypeError(
            f"{value} is not in 1..{MAX_REFINEMENT}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="abtqft",
        description="Abelian-group-valued TQFT computations: exact group "
                    "algebra, monoidal categories, discrete geometry and "
                    "the mod-24 / mod-2 bordism invariants.")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--record", metavar="PATH", default=None,
                   help="write a reproducibility record to PATH")
    # the same options are accepted after the subcommand; SUPPRESS keeps
    # the top-level defaults when they are not repeated there
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--record", metavar="PATH",
                        default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="exact abelian group operations")
    gsub = g.add_subparsers(dest="op", required=True)
    for op, handler, extra in [
            ("smith", cmd_group_smith, ()),
            ("kernel", cmd_group_kernel, ()),
            ("cokernel", cmd_group_cokernel, ()),
            ("image", cmd_group_image, ()),
            ("iso", cmd_group_iso, ()),
            ("pullback", cmd_group_pullback, ()),
            ("solve", cmd_group_solve, ("rhs",))]:
        sp = gsub.add_parser(op, parents=[common])
        sp.add_argument("files", nargs="+")
        for name in extra:
            sp.add_argument(name)
        if op != "pullback":    # pullback takes the first two morphisms
            sp.add_argument("--name", help="object name inside the files")
        sp.set_defaults(handler=handler)

    c = sub.add_parser("cat", help="monoidal categories and fibers")
    csub = c.add_subparsers(dest="op", required=True)
    sp = csub.add_parser("hom", parents=[common])
    sp.add_argument("files", nargs=1)
    sp.add_argument("a", help="source object coordinates")
    sp.add_argument("b", help="target object coordinates")
    sp.add_argument("--name")
    sp.add_argument("--oracle", action="store_true")
    sp.set_defaults(handler=cmd_cat_hom)
    sp = csub.add_parser("hofiber", parents=[common])
    sp.add_argument("files", nargs="+")
    sp.add_argument("--square")
    sp.set_defaults(handler=cmd_cat_hofiber)
    sp = csub.add_parser("xi", parents=[common])
    sp.add_argument("files", nargs="+")
    sp.add_argument("--square")
    sp.add_argument("--fill")
    sp.add_argument("--oracle", action="store_true")
    sp.set_defaults(handler=cmd_cat_xi)

    ge = sub.add_parser("geo", help="discrete geometry")
    gesub = ge.add_subparsers(dest="op", required=True)
    sp = gesub.add_parser("stokes", parents=[common])
    sp.add_argument("mesh", help="mesh file or builtin:<name>")
    sp.add_argument("cochain", help='cochain file {"degree":k,"values":[..]}')
    sp.set_defaults(handler=cmd_geo_stokes, files=[])
    sp = gesub.add_parser("holonomy", parents=[common])
    sp.add_argument("mesh")
    sp.add_argument("connection", help="connection file or 'tangent'")
    sp.add_argument("--loop", help="comma-separated signed edge indices")
    sp.set_defaults(handler=cmd_geo_holonomy, files=[])
    sp = gesub.add_parser("chern", parents=[common])
    sp.add_argument("mesh")
    sp.add_argument("connection", help="connection file or 'tangent'")
    sp.set_defaults(handler=cmd_geo_chern, files=[])

    b = sub.add_parser("bnr", help="bordism invariants")
    bsub = b.add_subparsers(dest="op", required=True)
    sp = bsub.add_parser("psi", parents=[common])
    # a scene file or a builtin scene, not both; the `default` object is
    # what argparse sees as "no files given"
    scene = sp.add_mutually_exclusive_group()
    scene.add_argument("files", nargs="*", default=[])
    scene.add_argument("--builtin", choices=BUILTIN_SCENES)
    sp.add_argument("--certify", action="store_true")
    sp.set_defaults(handler=cmd_bnr_psi)
    sp = bsub.add_parser("su", parents=[common])
    sp.add_argument("files", nargs="*")
    sp.set_defaults(handler=cmd_bnr_su)
    sp = bsub.add_parser("cs", parents=[common])
    sp.add_argument("--refine", type=refinement_level, default=2)
    sp.set_defaults(handler=cmd_bnr_cs, files=[])
    sp = bsub.add_parser("table", parents=[common])
    sp.add_argument("action", choices=("validate",))
    sp.set_defaults(handler=cmd_bnr_table, files=[])

    s = sub.add_parser("suite", help="verification suites")
    s.add_argument("op", choices=("acceptance",))
    s.set_defaults(handler=cmd_suite, files=[])
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    ws = Workspace()
    try:
        for path in getattr(args, "files", []) or []:
            ws.load_file(path)
        lines, data = args.handler(args, ws)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault with no message (MemoryError()) is named by its class
        print(f"computation error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 1

    if args.format == "json":
        output = json.dumps(data, sort_keys=True, indent=2)
    else:
        output = "\n".join(lines)
    print(output)

    if args.record:
        import hashlib
        from pathlib import Path
        logged, tokens = [], iter(argv)
        for token in tokens:
            if token == "--record":
                next(tokens, None)      # and its path
            elif not token.startswith("--record="):
                logged.append(token)
        record = {
            "command": logged,
            "inputs": {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                       for path in ws.inputs},
            "output": output,
            "convention": SIGN_CONVENTION,
            "version": __version__,
        }
        try:
            with open(args.record, "w") as fh:
                json.dump(record, fh, sort_keys=True, indent=2)
        except OSError as exc:
            print(f"input error: {args.record}: cannot write record "
                  f"({exc.strerror or exc})", file=sys.stderr)
            return 2
    return 1 if data.get("pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
