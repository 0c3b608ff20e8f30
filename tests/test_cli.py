"""Command line surface: output shapes, exit codes, witness conventions."""

import hashlib
import importlib
import json
import sys
import time

import pytest

import simclass
import simclass.oracle
from simclass import BadParams, Mat, count3, orbit_census, ring_ctx
from simclass.cli import (
    EX_BUDGET,
    EX_DIFFERENT,
    EX_MISMATCH,
    EX_OK,
    EX_USAGE,
    main,
)
from conftest import run_python


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------
# counting commands


def test_count_gl_level_two(capsys):
    code, out, _ = run(capsys, "count", "--group", "gl", "--q", "2", "--level", "2")
    assert code == EX_OK and out.strip() == "60"


def test_count_defaults_to_all_matrices(capsys):
    code, out, _ = run(capsys, "count", "--q", "3", "--level", "2")
    assert code == EX_OK and out.strip() == "1179"


def test_count_group_is_case_insensitive(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--group", "M", "--q", "3",
                       "--level", "2")
    assert code == EX_OK and out.strip() == "117"


def test_count_two_by_two(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--q", "2", "--level", "2")
    assert code == EX_OK and out.strip() == "28"


def test_gf_one_line(capsys):
    code, out, _ = run(capsys, "gf", "--q", "2", "--terms", "5")
    assert code == EX_OK and out == "1 14 144 1296 10976\n"


def test_gf_two_by_two(capsys):
    code, out, _ = run(capsys, "gf", "--n", "2", "--q", "2", "--terms", "4")
    assert code == EX_OK
    assert out.split() == ["1", "6", "28", "120"]


def test_gf_refuses_fewer_than_one_term_for_both_sizes(capsys):
    for n in ("2", "3"):
        for terms in ("0", "-5"):
            code, out, err = run(capsys, "gf", "--n", n, "--q", "2", "--terms", terms)
            assert (code, out) == (EX_USAGE, "")
            assert "need q >= 2 and terms >= 1" in err


def test_integer_options_take_plain_decimal_only(capsys):
    # int() reads "1_1" as 11: `count --q 1_1 --level 2` printed count3(11, 2)
    for argv in (["count", "--q", "1_1", "--level", "2"],
                 ["count", "--q", "+3", "--level", "2"],
                 ["count", "--q", " 3", "--level", "2"],
                 ["count", "--q", "\u0663", "--level", "2"],
                 ["count", "--q", "3", "--level", "0_2"],
                 ["count", "--n", "03", "--q", "3", "--level", "2"],
                 ["gf", "--q", "3", "--terms", "1_0"],
                 ["enumerate", "--ring", "z:2:1", "--budget", "1_000"],
                 ["oracle-census", "--ring", "z:2:1", "--max-states", "1_000"],
                 ["similar", "--ring", "z:1_1:1", "[[1,0],[0,1]]", "[[1,0],[0,1]]"]):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EX_USAGE, ""), argv
    code, out, _ = run(capsys, "count", "--q", "11", "--level", "2")
    assert code == EX_OK and out.strip() == str(count3(11, 2))


def test_count_prints_counts_past_the_int_digit_limit(capsys):
    # count3(2, 5000) has 4516 digits; the interpreter's limit for an int
    # to str conversion (4300 by default) is lifted for this output only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    code, out, err = run(capsys, "count", "--q", "2", "--level", "5000")
    assert (code, err) == (EX_OK, "")
    digits = out.strip()
    value = 0
    for i in range(0, len(digits), 1000):  # each chunk stays under the limit
        value = value * 10 ** len(digits[i : i + 1000]) + int(digits[i : i + 1000])
    assert len(digits) == 4516 and value == count3(2, 5000)
    if limit:
        assert sys.get_int_max_str_digits() == limit


# ----------------------------------------------------------------------
# canon and similar


def test_canon_3x3_witness_convention(capsys):
    ctx = ring_ctx("z", 2, 2)
    m = [[1, 0, 0], [1, 0, 2], [2, 2, 2]]
    code, out, _ = run(capsys, "canon", "--ring", "z:2:2", json.dumps(m))
    assert code == EX_OK
    payload = json.loads(out)
    assert payload["ring"] == "z:2:2"
    assert payload["form"]["body"]["kind"] == "split"
    a = Mat.from_rows(ctx, m)
    c = Mat.from_rows(ctx, payload["canonical"])
    x = Mat.from_rows(ctx, payload["witness"])
    assert x.is_invertible() and a @ x == x @ c


def test_canon_2x2(capsys):
    ctx = ring_ctx("z", 3, 2)
    m = [[1, 3], [0, 1]]
    code, out, _ = run(capsys, "canon", "--ring", "z:3:2", json.dumps(m))
    assert code == EX_OK
    payload = json.loads(out)
    assert set(payload["form"]) == {"j", "d", "c", "e"}
    a = Mat.from_rows(ctx, m)
    c = Mat.from_rows(ctx, payload["canonical"])
    x = Mat.from_rows(ctx, payload["witness"])
    assert a @ x == x @ c


def _witnesses(obj):
    """Every value under a "witness" key, at any depth of the JSON."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "witness":
                yield value
            yield from _witnesses(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _witnesses(value)


def test_every_witness_canon_prints_satisfies_input_x_equals_x_canonical(capsys):
    cases = [
        ("z:3:2", [[3, 0, 0], [5, 3, 0], [7, 0, 3]]),  # hard residue
        ("z:2:2", [[1, 2, 0], [0, 1, 1], [2, 0, 3]]),  # hard residue
        ("z:3:2", [[1, 2, 0], [0, 1, 3], [1, 0, 4]]),  # cyclic residue
        ("z:2:2", [[1, 0, 0], [1, 0, 2], [2, 2, 2]]),  # split residue
        ("t:2:2", [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),  # cyclic residue
        ("z:2:2", [[3, 0, 0], [0, 3, 0], [0, 0, 3]]),  # scalar
        ("z:3:2", [[1, 3], [0, 1]]),
        ("t:3:2", [[2, 5], [7, 1]]),
        ("z:2:2", [[2, 0], [0, 2]]),
    ]
    for desc, rows in cases:
        code, out, _ = run(capsys, "canon", "--ring", desc, json.dumps(rows))
        assert code == EX_OK
        payload = json.loads(out)
        ctx = ring_ctx(*(int(v) if v.isdigit() else v for v in desc.split(":")))
        a, c = Mat.from_rows(ctx, rows), Mat.from_rows(ctx, payload["canonical"])
        assert payload["witness"]
        for w in _witnesses(payload):
            x = Mat.from_rows(ctx, w)
            assert x.is_invertible() and a @ x == x @ c, (desc, rows, w)


def test_canon_reads_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[[3, 0], [0, 3]]\n")
    code, out, _ = run(capsys, "canon", "--ring", "z:2:2", str(path))
    assert code == EX_OK
    assert json.loads(out)["canonical"] == [[3, 0], [0, 3]]


def test_similar_yes_and_witness(capsys):
    a = [[0, 1], [0, 0]]
    b = [[3, 1], [3, 1]]  # conjugate of a over Z/4
    code, out, _ = run(capsys, "similar", "--ring", "z:2:2", json.dumps(a), json.dumps(b))
    assert code == EX_OK
    payload = json.loads(out)
    assert payload["similar"] is True
    ctx = ring_ctx("z", 2, 2)
    x = Mat.from_rows(ctx, payload["witness"])
    assert Mat.from_rows(ctx, a) @ x == x @ Mat.from_rows(ctx, b)


def test_similar_equal_scalars_over_a_large_field(capsys):
    s = "[[3,0,0],[0,3,0],[0,0,3]]"
    code, out, _ = run(capsys, "similar", "--ring", "z:7:1", s, s)
    assert code == EX_OK
    assert json.loads(out) == {"similar": True, "witness": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def test_similar_nilpotent_pair_over_f31(capsys):
    # the reference solver's residue span here has 31^5 points; the forms
    # decide it at once
    a, b = "[[0,1,0],[0,0,0],[0,0,0]]", "[[0,0,0],[0,0,1],[0,0,0]]"
    code, out, _ = run(capsys, "similar", "--ring", "z:31:1", a, b)
    assert code == EX_OK
    ctx = ring_ctx("z", 31, 1)
    x = Mat.from_rows(ctx, json.loads(out)["witness"])
    ma, mb = Mat.from_rows(ctx, json.loads(a)), Mat.from_rows(ctx, json.loads(b))
    assert x.is_invertible() and ma @ x == x @ mb


def test_centralizer_of_j_shape_over_f31(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "centralizer", "--ring", "z:31:1", "[[0,0,0],[0,0,1],[0,0,0]]")
    assert time.perf_counter() - t0 < 1
    assert code == EX_OK and json.loads(out)["order"] == 26811900


def test_oversized_rings_are_refused_before_any_big_arithmetic():
    # p^length is never computed for a length of 63 or more, and p is
    # bounded before its primality test (whose message prints p)
    for desc in ("z:3:100000000", f"z:{2**13000 + 1}:1"):
        proc = run_python("-m", "simclass.cli", "canon", "--ring", desc, "[[1]]", timeout=20)
        assert proc.returncode == EX_USAGE
        assert proc.stderr == "simclass: ring cardinality must be below 2**63\n"


def test_canon_hard_input_over_z125_returns():
    # the hard form is the normal form itself: no index is built
    proc = run_python("-m", "simclass.cli", "canon", "--ring", "z:5:3",
                      "[[0,0,0],[0,0,1],[0,0,0]]", timeout=60)
    assert proc.returncode == EX_OK, proc.stderr
    assert json.loads(proc.stdout)["form"]["body"]["kind"] == "hard"


def test_canon_hard_input_over_z31_len2_returns():
    # no index and no residue-span scan that grows with p
    proc = run_python("-m", "simclass.cli", "canon", "--ring", "z:31:2",
                      "[[0,0,0],[0,0,1],[0,0,0]]", timeout=60)
    assert proc.returncode == EX_OK, proc.stderr
    assert json.loads(proc.stdout)["form"]["body"]["type"] == "I"


def test_numpy_loads_only_with_the_oracle():
    # a fresh interpreter: the package loads only the core canon needs, and
    # each command loads only the modules it runs (census, modsolve,
    # fractions, the oracle with numpy); every public name still resolves
    # to its submodule's object, and canon2 and canon3 stay the functions
    script = (
        "import contextlib, importlib, io, sys\n"
        "LAZY = ('simclass.census', 'simclass.modsolve', 'simclass.oracle', 'fractions', 'numpy')\n"
        "def check(step, *want):\n"
        "    got = sorted(name for name in LAZY if name in sys.modules)\n"
        "    if got != sorted(want):\n"
        "        sys.exit(f'{step} loaded {got}, expected {sorted(want)}')\n"
        "def cli(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if simclass.cli.main(list(argv)) != 0:\n"
        "            sys.exit(' '.join(argv) + ' failed')\n"
        "import simclass\n"
        "check('import simclass')\n"
        "if set(simclass.__all__) - set(dir(simclass)):\n"
        "    sys.exit('dir(simclass) misses a public name')\n"
        "import simclass.cli\n"
        "check('import simclass.cli')\n"
        "cli('canon', '--ring', 'z:2:2', '[[0,0,0],[0,0,1],[0,0,0]]')\n"
        "check('a hard canon')\n"
        "cli('similar', '--ring', 'z:3:1', '[[1,0,0],[0,2,0],[0,0,0]]', '[[0,0,0],[0,1,0],[0,0,2]]')\n"
        "check('similar', 'simclass.modsolve')\n"
        "cli('count', '--q', '2', '--level', '2')\n"
        "check('count', 'simclass.census', 'simclass.modsolve')\n"
        "cli('gf', '--q', '2', '--terms', '3')\n"
        "check('gf', 'fractions', 'simclass.census', 'simclass.modsolve')\n"
        "DEFINED = {\n"
        "    'errors': ('BadDescriptor', 'BadLevel', 'BadParams', 'BudgetExceeded', 'CtxMismatch',\n"
        "               'NonIntegralDivision', 'NonUnit', 'NotInvertible', 'SearchBudgetExceeded',\n"
        "               'SimclassError', 'VerificationFailed'),\n"
        "    'ring': ('RingCtx', 'parse_ring', 'ring_ctx'),\n"
        "    'matrix': ('Mat', 'diag', 'e_matrix', 'elementary', 'identity', 'scalar', 'zero'),\n"
        "    'canon2': ('CanonicalForm', 'CyclicBody', 'ScalarBody', 'canon2'),\n"
        "    'canon3': ('HardBody', 'SplitBody', 'canon3', 'hard_family'),\n"
        "    'census': ('CountVector', 'count2', 'count3', 'enumerate3', 'gf_coeffs',\n"
        "               'type_histogram'),\n"
        "    'modsolve': ('centralizer_order', 'group_order', 'is_similar'),\n"
        "    'oracle': ('OrbitCensus', 'orbit_census', 'orbit_of', 'verify_counts'),\n"
        "}\n"
        "if sorted(n for names in DEFINED.values() for n in names) != sorted(simclass.__all__):\n"
        "    sys.exit('__all__ is not the union of the submodules names')\n"
        "resolved = {name: getattr(simclass, name) for name in simclass.__all__}\n"
        "check('resolving __all__', *LAZY)\n"
        "for sub, names in DEFINED.items():\n"
        "    module = importlib.import_module('simclass.' + sub)\n"
        "    for name in names:\n"
        "        if resolved[name] is not getattr(module, name):\n"
        "            sys.exit(name + ' is not the object simclass.' + sub + ' defines')\n"
        "import simclass.canon2 as c2\n"
        "import simclass.canon3 as c3\n"
        "for sub, fn in (('canon2', c2), ('canon3', c3)):\n"
        "    want = getattr(sys.modules['simclass.' + sub], sub)\n"
        "    if not (fn is want and getattr(simclass, sub) is want):\n"
        "        sys.exit('simclass.' + sub + ' is not the function')\n"
        "print('ok')\n"
    )
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


PUBLIC_NAMES = [
    "BadDescriptor", "BadLevel", "BadParams", "BudgetExceeded", "CanonicalForm", "CountVector",
    "CtxMismatch", "CyclicBody", "HardBody", "Mat", "NonIntegralDivision", "NonUnit",
    "NotInvertible", "OrbitCensus", "RingCtx", "ScalarBody", "SearchBudgetExceeded",
    "SimclassError", "SplitBody", "VerificationFailed", "canon2", "canon3",
    "centralizer_order", "count2", "count3", "diag", "e_matrix", "elementary", "enumerate3",
    "gf_coeffs", "group_order", "hard_family", "identity", "is_similar", "orbit_census",
    "orbit_of", "parse_ring", "ring_ctx", "scalar", "type_histogram", "verify_counts", "zero",
]


def test_public_names_are_pinned():
    # a name joins or leaves the public surface only on purpose: none
    # may be public for the tests' sake alone
    assert sorted(simclass.__all__) == PUBLIC_NAMES
    assert simclass.oracle.__all__ == ["OrbitCensus", "orbit_census", "orbit_of", "verify_counts"]
    for module in (simclass, simclass.oracle):
        for name in module.__all__:
            assert getattr(module, name) is not None


def test_one_by_one_input_is_refused(capsys):
    ctx = ring_ctx("z", 2, 2)
    for build in (lambda: Mat(ctx, 1, [1]), lambda: Mat.from_rows(ctx, [[1]]),
                  lambda: orbit_census(ctx, 1)):
        with pytest.raises(BadParams):
            build()
    for argv in (["canon", "--ring", "z:2:2", "[[1]]"],
                 ["similar", "--ring", "z:2:2", "[[1]]", "[[1]]"],
                 ["centralizer", "--ring", "z:2:2", "[[1]]"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EX_USAGE, ""), argv
        assert "only n in {2,3} supported" in err


def test_broken_witness_exits_70_under_optimize():
    # a cyclic-residue input that is not a companion matrix, with the row
    # witness replaced by the identity: the exact check must still fire
    # under -O, which strips assert statements (the cyclic branch, and so
    # the row witness it calls, is canon2's, shared with canon3)
    script = (
        "import importlib, sys\n"
        "from simclass.cli import main\n"
        "from simclass.matrix import identity\n"
        "c2 = importlib.import_module('simclass.canon2')\n"
        "c2._cyclic_row_witness = lambda beta: identity(beta.ctx, 3)\n"
        "sys.exit(main(['canon', '--ring', 'z:2:2', '[[1,1,0],[0,1,1],[0,0,1]]']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH
    assert "verification failed" in proc.stderr


def test_broken_canon2_witness_raises_and_exits_70_under_optimize():
    # a 2x2 input that is not a companion matrix, with the row witness
    # replaced by the identity: canon2 itself must raise under -O
    script = (
        "import importlib, sys\n"
        "from simclass import Mat, VerificationFailed, canon2, ring_ctx\n"
        "from simclass.cli import main\n"
        "from simclass.matrix import identity\n"
        "c2 = importlib.import_module('simclass.canon2')\n"
        "c2._cyclic_row_witness = lambda beta: identity(beta.ctx, 2)\n"
        "try:\n"
        "    canon2(Mat.from_rows(ring_ctx('z', 2, 2), [[1, 1], [0, 1]]))\n"
        "    sys.exit('no VerificationFailed')\n"
        "except VerificationFailed:\n"
        "    pass\n"
        "sys.exit(main(['canon', '--ring', 'z:2:2', '[[1,1],[0,1]]']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "canon2 witness check failed" in proc.stderr


def test_centralizer_not_dividing_the_group_order_exits_70_under_optimize():
    # a cyclic unit count off by a factor q makes the centralizer of the
    # nilpotent Jordan block over F_2 count 4, which does not divide
    # |GL_2(F_2)| = 6
    script = (
        "import importlib, sys\n"
        "from simclass.cli import main\n"
        "ms = importlib.import_module('simclass.modsolve')\n"
        "real = ms._cyclic_units\n"
        "ms._cyclic_units = lambda res, i, f: res.q * real(res, i, f)\n"
        "sys.exit(main(['centralizer', '--ring', 'z:2:1', '[[0,1],[0,0]]']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "does not divide" in proc.stderr


def test_broken_similarity_witness_exits_70_under_optimize():
    # with every form witness replaced by the identity the forms still
    # agree, so the explicit check on X = W_A^-1 W_B must fire under -O
    script = (
        "import dataclasses, importlib, sys\n"
        "from simclass.cli import main\n"
        "from simclass.matrix import identity\n"
        "ms = importlib.import_module('simclass.modsolve')\n"
        "real = ms.canon\n"
        "ms.canon = lambda m: dataclasses.replace(real(m), witness=identity(m.ctx, m.n))\n"
        "sys.exit(main(['similar', '--ring', 'z:2:2', '[[0,1],[0,0]]', '[[3,1],[3,1]]']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "similarity witness" in proc.stderr


def test_broken_block_split_raises_under_optimize():
    # with pi added to entry (1, 0) of the block split's X, its rows keep
    # their residue, so X stays invertible, but row 1 leaves the invariant
    # complement (e_0 is the residue a-eigenvector here), so X no longer
    # splits the blocks; the witness check of the whole form must fire
    # under -O, and canon exit 70
    script = (
        "import importlib, sys\n"
        "from simclass import Mat\n"
        "from simclass.cli import main\n"
        "c3 = importlib.import_module('simclass.canon3')\n"
        "real = c3._block_split\n"
        "def broken(beta, res, abar, bbar):\n"
        "    a, b, x = real(beta, res, abar, bbar)\n"
        "    v = list(x.vals)\n"
        "    v[3] = x.ctx.add_raw(v[3], x.ctx.p)\n"
        "    return a, b, Mat(x.ctx, 3, v)\n"
        "c3._block_split = broken\n"
        "sys.exit(main(['canon', '--ring', 'z:2:2', '[[1, 0, 0], [1, 0, 2], [2, 2, 2]]']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "verification failed: canon3 witness check failed" in proc.stderr


def test_canon_and_similar_over_a_61_bit_prime():
    # the residue type is read off the minimal polynomial and the cyclic
    # row witness scans at most four digits per entry, so nothing here
    # grows with p; each decision is timed in the child
    script = (
        "import contextlib, io, json, sys, time\n"
        "from simclass import Mat, parse_ring\n"
        "from simclass.cli import main\n"
        "def run(*argv):\n"
        "    out = io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(list(argv))\n"
        "    took = time.perf_counter() - start\n"
        "    if took > 1:\n"
        "        sys.exit(f'{argv} took {took:.2f} s')\n"
        "    return code, json.loads(out.getvalue())\n"
        "P = 2**61 - 1\n"
        "inputs = {\n"
        "    'cyclic': [[0, 1, 0], [0, 0, 1], [0, 4, 5]],\n"
        "    'split': [[2, 0, 0], [0, 2, 0], [7, 0, 5]],\n"
        "    'hard': [[3, 0, 0], [5, 3, 0], [7, 0, 3]],\n"
        "}\n"
        "for desc in (f'z:{P}:1', f't:{P}:1'):\n"
        "    ctx = parse_ring(desc)\n"
        "    for kind, rows in inputs.items():\n"
        "        code, out = run('canon', '--ring', desc, json.dumps(rows))\n"
        "        m, x, c = (Mat.from_rows(ctx, r) for r in (rows, out['witness'], out['canonical']))\n"
        "        if code or out['form']['body']['kind'] != kind or not x.conjugates(c, m):\n"
        "            sys.exit(f'canon {kind} over {desc}: {code} {out}')\n"
        "    a = Mat.from_rows(ctx, inputs['hard'])\n"
        "    g = Mat.from_rows(ctx, [[1, 2, 3], [0, 1, 5], [P - 1, 0, 2]])\n"
        "    b = a.conjugate_by(g)\n"
        "    code, out = run('similar', '--ring', desc, json.dumps(a.rows()), json.dumps(b.rows()))\n"
        "    x = Mat.from_rows(ctx, out['witness'])\n"
        "    if code or not out['similar'] or not x.conjugates(b, a):\n"
        "        sys.exit(f'similar over {desc}: {code} {out}')\n"
    )
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_oracle_partition_mismatch_exits_70_under_optimize():
    # a visited marker that also marks one neighbour of every batch loses
    # states from the census; the partition check must fire under -O
    script = (
        "import importlib, sys\n"
        "from simclass import VerificationFailed, ring_ctx\n"
        "from simclass.cli import main\n"
        "o = importlib.import_module('simclass.oracle')\n"
        "real = o._mark\n"
        "def leaky(visited, ids):\n"
        "    real(visited, ids)\n"
        "    real(visited, ids[:1] ^ 1)\n"
        "o._mark = leaky\n"
        "try:\n"
        "    o.orbit_census(ring_ctx('z', 2, 1), 3, want_labels=True)\n"
        "    sys.exit('no VerificationFailed')\n"
        "except VerificationFailed:\n"
        "    pass\n"
        "sys.exit(main(['oracle-census', '--ring', 'z:2:1']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "verification failed" in proc.stderr


# each fault leaves a remainder in one exact division of a count
_BROKEN_DIVISION = (
    "def broken(num, den):\n"
    "    raise c.NonIntegralDivision(f'{num} not divisible by {den}')\n"
    "c._exact_div = broken\n"
)
# a term of the generating function off by 1/2
_BROKEN_SERIES = (
    "import builtins, fractions\n"
    "c.sum = lambda terms: builtins.sum(terms) + fractions.Fraction(1, 2)\n"
)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize("fault,argv", [
    (_BROKEN_DIVISION, ["count", "--q", "2", "--level", "1"]),
    (_BROKEN_DIVISION, ["gf", "--n", "2", "--q", "2", "--terms", "3"]),
    (_BROKEN_SERIES, ["gf", "--q", "2", "--terms", "3"]),
], ids=["count", "gf-n2", "gf-n3"])
def test_a_non_integral_count_exits_70(flags, fault, argv):
    # a count whose exact division leaves a remainder failed an exact
    # identity: exit 70, not a usage error, also under -O
    script = (
        "import importlib, sys\n"
        "from simclass.cli import main\n"
        "c = importlib.import_module('simclass.census')\n"
        + fault
        + f"sys.exit(main({argv!r}))\n"
    )
    proc = run_python(*flags, "-c", script, timeout=60)
    assert (proc.returncode, proc.stdout) == (EX_MISMATCH, ""), proc.stderr
    assert "verification failed" in proc.stderr
    assert "not integral" in proc.stderr or "not divisible" in proc.stderr


def test_failed_primitive_root_search_exits_70(capsys, monkeypatch):
    # with phi itself as the only "prime factor" every unit fails the
    # order test, so the unit-group generator search finds none
    ring = importlib.import_module("simclass.ring")
    monkeypatch.setattr(ring, "_prime_factors", lambda n: [1])
    code, _, err = run(capsys, "oracle-census", "--ring", "z:3:1", "--n", "2")
    assert code == EX_MISMATCH
    assert "no unit of order 2 modulo 3" in err


def test_centralizer_over_large_primes_returns():
    # _cyclic_units counts residue roots with gcd(f, x^q - x), so its
    # cost is O(log q); each answer is timed in the child
    script = (
        "import contextlib, io, json, sys, time\n"
        "from simclass import group_order, parse_ring\n"
        "from simclass.cli import main\n"
        "P = 2**61 - 1\n"
        "cases = [(f'z:{P}:1', [[0, 1, 0], [0, 0, 1], [0, 4, 5]]),\n"
        "         (f't:{P}:1', [[0, 1, 0], [0, 0, 1], [0, 4, 5]]),\n"
        "         ('z:1000003:2', [[2, 0, 0], [0, 2, 1000003], [7, 0, 5]])]\n"
        "for desc, rows in cases:\n"
        "    out = io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['centralizer', '--ring', desc, json.dumps(rows)])\n"
        "    took = time.perf_counter() - start\n"
        "    order = json.loads(out.getvalue())['order']\n"
        "    if code or took > 0.5 or group_order(parse_ring(desc), 3) % order:\n"
        "        sys.exit(f'centralizer over {desc}: exit {code}, {took:.2f} s, order {order}')\n"
    )
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_similar_no(capsys):
    code, out, _ = run(capsys, "similar", "--ring", "z:2:2",
                       "[[0,1],[0,0]]", "[[0,2],[0,0]]")
    assert code == EX_DIFFERENT
    assert json.loads(out) == {"similar": False, "witness": None}


# ----------------------------------------------------------------------
# enumeration commands


def test_enumerate_streams_one_line_per_class(capsys):
    code, out, _ = run(capsys, "enumerate", "--ring", "z:2:1")
    assert code == EX_OK
    lines = out.strip().split("\n")
    assert len(lines) == 14
    ctx = ring_ctx("z", 2, 1)
    mats = set()
    for line in lines:
        payload = json.loads(line)
        mats.add(Mat.from_rows(ctx, payload["matrix"]))
    assert len(mats) == 14


def test_enumerate_2x2_gl(capsys):
    code, out, _ = run(capsys, "enumerate", "--ring", "z:3:1", "--n", "2",
                       "--group", "gl")
    assert code == EX_OK
    assert len(out.strip().split("\n")) == 8


def test_enumerate_lines_carry_no_witness(capsys):
    for n in ("2", "3"):
        for group in ("m", "gl"):
            code, out, _ = run(capsys, "enumerate", "--ring", "z:3:1", "--n", n,
                               "--group", group)
            assert code == EX_OK
            assert all(not list(_witnesses(json.loads(line))) for line in out.splitlines())


def test_histogram(capsys):
    code, out, _ = run(capsys, "histogram", "--ring", "z:2:2")
    assert code == EX_OK
    payload = json.loads(out)
    assert payload["count"] == 144
    assert payload["histogram"] == [[2, 2, 2, 8], [4, 12, 12, 116]]


def test_oracle_census(capsys):
    code, out, _ = run(capsys, "oracle-census", "--ring", "z:2:1")
    assert code == EX_OK
    payload = json.loads(out)
    assert (payload["classes"], payload["gl_classes"]) == (14, 6)
    assert payload["largest_orbit"] == 84


def test_centralizer(capsys):
    code, out, _ = run(capsys, "centralizer", "--ring", "z:2:2", "[[1,1],[0,1]]")
    assert code == EX_OK
    payload = json.loads(out)
    assert payload["order"] * payload["orbit_size"] == payload["group_order"] == 96


def test_verify_clean_run(capsys):
    code, out, _ = run(capsys, "verify", "--ring", "z:2:1", "--n", "2")
    assert code == EX_OK
    lines = out.strip().split("\n")
    assert any("M: oracle=6 formula=6 enumerated=6 ok" in ln for ln in lines)
    assert "canonical forms constant" in lines[-1]


def test_verify_reports_an_enumeration_mismatch(capsys, monkeypatch):
    # a closed form one M class too high: the stream refuses its count,
    # and verify still prints the row, with the count it streamed
    census, oracle = (importlib.import_module(f"simclass.{m}") for m in ("census", "oracle"))
    real = census.count3

    def count3(q, level, group="M"):
        return 15 if (q, level, group) == (2, 1, "M") else real(q, level, group)

    monkeypatch.setattr(census, "count3", count3)
    monkeypatch.setattr(oracle, "count3", count3)
    code, out, err = run(capsys, "verify", "--ring", "z:2:1", "--n", "3")
    assert code == EX_MISMATCH
    lines = out.splitlines()
    assert lines[0] == "z:2:1 n=3 M: oracle=14 formula=15 enumerated=14 MISMATCH"
    assert lines[1] == "z:2:1 n=3 GL: oracle=6 formula=6 enumerated=6 ok"
    assert "canonical forms constant" in lines[2] and len(lines) == 3
    assert "verification failed: enumerate3 over z:2:1 emitted 14 M classes" in err


# ----------------------------------------------------------------------
# failure modes


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "count", "--q", "2")[0] == EX_USAGE  # missing --level
    assert run(capsys, "count", "--group", "sl", "--q", "2", "--level", "1")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:9:1", "[[1,0],[0,1]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "q:2:2", "[[1,0],[0,1]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "/no/such/file")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "[[1,0],[0,1],[0,0]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "[[1,2,3],[0]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "[[1.9,0],[0,0]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "[[true,0],[0,0]]")[0] == EX_USAGE
    assert run(capsys, "nonsense")[0] == EX_USAGE
    for q in ("1", "0", "-1"):
        assert run(capsys, "gf", "--q", q, "--terms", "3")[0] == EX_USAGE


def test_a_row_that_is_not_a_list_exits_64_and_is_named(capsys, tmp_path):
    for text, row in (("[1,2]", "1"), ("[null]", "None"), ("[[0,1],5]", "5")):
        code, out, err = run(capsys, "canon", "--ring", "z:2:3", text)
        assert (code, out) == (EX_USAGE, ""), text
        assert err == f"simclass: matrix row {row} is not a list of entries\n", text
    # a matrix file may hold any JSON value, so the matrix itself is checked too
    path = tmp_path / "five.json"
    path.write_text("5\n")
    assert run(capsys, "canon", "--ring", "z:2:3", str(path)) == (
        EX_USAGE, "", "simclass: matrix 5 is not a list of rows\n")


def test_negative_budget_exits_64(capsys):
    for cmd, value in (("enumerate", "-1"), ("histogram", "-5")):
        code, _, err = run(capsys, cmd, "--ring", "z:2:1", "--budget", value)
        assert code == EX_USAGE and f"must be >= 0, got {value}" in err


def test_negative_max_states_exits_64(capsys):
    for cmd in ("oracle-census", "verify"):
        code, _, err = run(capsys, cmd, "--ring", "z:2:1", "--max-states", "-3")
        assert code == EX_USAGE and "must be >= 0, got -3" in err


def test_budget_exit_65(capsys):
    code, _, _ = run(capsys, "enumerate", "--ring", "z:5:3", "--budget", "10")
    assert code == EX_BUDGET


def test_histogram_budget_bounds_the_classes_of_every_length(capsys):
    # z:2:3 has 14 + 144 + 1296 = 1454 classes over its three lengths
    for budget in ("1000", "1300", "1453"):
        code, out, err = run(capsys, "histogram", "--ring", "z:2:3", "--budget", budget)
        assert code == EX_BUDGET and out == "" and "1454 classes" in err
    code, out, _ = run(capsys, "histogram", "--ring", "z:2:3", "--budget", "1454")
    assert code == EX_OK and json.loads(out)["count"] == 1296


def test_budget_bounds_the_group_class_count(capsys):
    # over z:3:2 there are 78 GL and 117 M classes of 2x2 matrices, and
    # 1179 M classes of 3x3 ones; a refused run prints nothing
    code, out, _ = run(capsys, "enumerate", "--ring", "z:3:2", "--n", "2",
                       "--group", "gl", "--budget", "78")
    assert code == EX_OK and len(out.splitlines()) == 78
    for n, budget in (("2", "78"), ("3", "1178")):
        code, out, err = run(capsys, "enumerate", "--ring", "z:3:2", "--n", n,
                             "--group", "m", "--budget", budget)
        assert code == EX_BUDGET and out == "" and "budget" in err


def test_output_is_deterministic(capsys):
    args = ("enumerate", "--ring", "z:2:2", "--n", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# ----------------------------------------------------------------------
# pinned output: sha256 of exit code and stdout, one entry per call


PINNED_CALLS = [
    ("enumerate", "--ring", ring, "--n", n, "--group", group)
    for ring in ("z:2:2", "t:2:2", "z:3:1")
    for n in ("2", "3")
    for group in ("m", "gl")
] + [
    ("canon", "--ring", "z:3:2", "[[1,2,0],[0,1,3],[1,0,4]]"),
    ("canon", "--ring", "z:3:2", "[[3,0,0],[5,3,0],[7,0,3]]"),
    ("canon", "--ring", "z:2:2", "[[1,2,0],[0,1,1],[2,0,3]]"),
    ("canon", "--ring", "z:2:2", "[[1,0,0],[1,0,2],[2,2,2]]"),
    ("canon", "--ring", "t:2:2", "[[1,1,0],[0,1,1],[0,0,1]]"),
    ("canon", "--ring", "z:2:3", "[[4,0,0],[0,4,2],[6,2,4]]"),
    ("canon", "--ring", "t:3:2", "[[3,0,0],[0,3,0],[0,0,3]]"),
    ("canon", "--ring", "z:5:2", "[[7,3],[10,2]]"),
    ("canon", "--ring", "t:2:2", "[[2,1],[3,0]]"),
    ("similar", "--ring", "z:2:2", "[[0,1],[0,0]]", "[[3,1],[3,1]]"),
    ("similar", "--ring", "z:2:2", "[[0,1],[0,0]]", "[[0,2],[0,0]]"),
    ("similar", "--ring", "z:3:2", "[[1,2,0],[0,1,3],[1,0,4]]", "[[1,0,0],[3,1,0],[2,0,4]]"),
    ("similar", "--ring", "z:3:2", "[[3,0,0],[5,3,0],[7,0,3]]", "[[5,5,1],[8,5,4],[1,7,8]]"),
    ("similar", "--ring", "t:2:2", "[[0,0,0],[0,0,1],[0,0,0]]", "[[0,0,1],[0,0,0],[0,0,0]]"),
    ("similar", "--ring", "z:2:2", "[[1,0,0],[1,0,2],[2,2,2]]", "[[0,1,0],[1,0,2],[2,2,2]]"),
    ("centralizer", "--ring", "z:3:2", "[[1,2,0],[0,1,3],[1,0,4]]"),
    ("centralizer", "--ring", "z:3:2", "[[3,0,0],[5,3,0],[7,0,3]]"),
    ("centralizer", "--ring", "z:2:2", "[[1,0,0],[1,0,2],[2,2,2]]"),
    ("centralizer", "--ring", "t:2:2", "[[0,0,0],[0,0,1],[0,0,0]]"),
    ("centralizer", "--ring", "z:5:2", "[[7,3],[10,2]]"),
    ("centralizer", "--ring", "t:3:2", "[[3,0],[0,3]]"),
    # split residues at length >= 2 over t, at length 3 and over a large p
    ("canon", "--ring", "t:3:2", "[[7,3,2],[7,2,7],[3,6,5]]"),
    ("similar", "--ring", "t:3:2", "[[7,3,2],[7,2,7],[3,6,5]]", "[[5,0,6],[7,4,7],[3,3,5]]"),
    ("canon", "--ring", "z:7:3", "[[53,19,217],[305,24,154],[19,104,274]]"),
    ("similar", "--ring", "z:7:3", "[[53,19,217],[305,24,154],[19,104,274]]",
     "[[15,28,28],[305,62,154],[19,85,274]]"),
    ("canon", "--ring", "z:1000003:2",
     "[[414640878072,512196731706,829272756101],[1000003024403,1000005853665,5048789],"
     "[292694634182,243901195115,585365268286]]"),
    # 3x3 enumerations with split and hard bodies at several levels
    ("enumerate", "--ring", "t:3:2", "--n", "3", "--group", "m"),
    ("enumerate", "--ring", "t:3:2", "--n", "3", "--group", "gl"),
    ("enumerate", "--ring", "z:2:3", "--n", "3", "--group", "m"),
    ("enumerate", "--ring", "z:2:3", "--n", "3", "--group", "gl"),
    # hard bodies: centralizers at level 1 (types II and III1), canon of
    # conjugated type II and III0 inputs
    ("centralizer", "--ring", "z:2:3", "[[1,4,0],[0,1,2],[0,4,1]]"),
    ("centralizer", "--ring", "t:2:3", "[[1,6,2],[4,7,2],[0,6,7]]"),
    ("canon", "--ring", "z:3:2", "[[0,5,7],[3,8,1],[6,8,1]]"),
    ("canon", "--ring", "z:2:3", "[[0,7,5],[2,3,3],[4,7,5]]"),
    # lane rings (t:3:7, t:2:11) and table rings of more than 9 elements
    # (t:3:6, t:2:10): per ring a split, a hard and a 2x2 input, each a
    # conjugate of its base form, through canon, similar (against another
    # conjugate) and centralizer
    ("canon", "--ring", "t:3:7", "[[14,1326,2169],[1099,829,1735],[672,522,1271]]"),
    ("similar", "--ring", "t:3:7", "[[14,1326,2169],[1099,829,1735],[672,522,1271]]",
     "[[1667,1642,1769],[2064,295,1435],[63,510,431]]"),
    ("centralizer", "--ring", "t:3:7", "[[14,1326,2169],[1099,829,1735],[672,522,1271]]"),
    ("canon", "--ring", "t:3:7", "[[661,733,2045],[1035,2021,278],[1653,1117,1263]]"),
    ("similar", "--ring", "t:3:7", "[[661,733,2045],[1035,2021,278],[1653,1117,1263]]",
     "[[61,573,162],[1473,935,1669],[1284,1679,1473]]"),
    ("centralizer", "--ring", "t:3:7", "[[661,733,2045],[1035,2021,278],[1653,1117,1263]]"),
    ("canon", "--ring", "t:3:7", "[[1697,1449],[561,218]]"),
    ("similar", "--ring", "t:3:7", "[[1697,1449],[561,218]]", "[[335,624],[783,1985]]"),
    ("centralizer", "--ring", "t:3:7", "[[1697,1449],[561,218]]"),
    ("canon", "--ring", "t:2:11", "[[531,360,1240],[1083,1746,409],[190,12,503]]"),
    ("similar", "--ring", "t:2:11", "[[531,360,1240],[1083,1746,409],[190,12,503]]",
     "[[849,1714,1510],[1940,389,111],[1950,92,2018]]"),
    ("centralizer", "--ring", "t:2:11", "[[531,360,1240],[1083,1746,409],[190,12,503]]"),
    ("canon", "--ring", "t:2:11", "[[1772,1444,606],[1888,1572,2000],[273,98,1146]]"),
    ("similar", "--ring", "t:2:11", "[[1772,1444,606],[1888,1572,2000],[273,98,1146]]",
     "[[106,1606,1518],[2009,145,1209],[1745,231,1097]]"),
    ("centralizer", "--ring", "t:2:11", "[[1772,1444,606],[1888,1572,2000],[273,98,1146]]"),
    ("canon", "--ring", "t:2:11", "[[1003,1145],[1876,333]]"),
    ("similar", "--ring", "t:2:11", "[[1003,1145],[1876,333]]", "[[1853,31],[1212,1435]]"),
    ("centralizer", "--ring", "t:2:11", "[[1003,1145],[1876,333]]"),
    ("canon", "--ring", "t:3:6", "[[313,6,615],[514,557,78],[631,3,185]]"),
    ("similar", "--ring", "t:3:6", "[[313,6,615],[514,557,78],[631,3,185]]",
     "[[275,99,492],[183,566,177],[75,315,214]]"),
    ("centralizer", "--ring", "t:3:6", "[[313,6,615],[514,557,78],[631,3,185]]"),
    ("canon", "--ring", "t:3:6", "[[177,564,687],[484,165,667],[312,0,288]]"),
    ("similar", "--ring", "t:3:6", "[[177,564,687],[484,165,667],[312,0,288]]",
     "[[111,412,515],[15,467,100],[342,449,109]]"),
    ("centralizer", "--ring", "t:3:6", "[[177,564,687],[484,165,667],[312,0,288]]"),
    ("canon", "--ring", "t:3:6", "[[530,183],[303,400]]"),
    ("similar", "--ring", "t:3:6", "[[530,183],[303,400]]", "[[561,377],[323,366]]"),
    ("centralizer", "--ring", "t:3:6", "[[530,183],[303,400]]"),
    ("canon", "--ring", "t:2:10", "[[153,76,762],[77,8,10],[311,784,390]]"),
    ("similar", "--ring", "t:2:10", "[[153,76,762],[77,8,10],[311,784,390]]",
     "[[503,840,564],[586,644,648],[593,864,612]]"),
    ("centralizer", "--ring", "t:2:10", "[[153,76,762],[77,8,10],[311,784,390]]"),
    ("canon", "--ring", "t:2:10", "[[11,421,958],[495,237,922],[497,425,806]]"),
    ("similar", "--ring", "t:2:10", "[[11,421,958],[495,237,922],[497,425,806]]",
     "[[1004,514,674],[838,508,202],[715,159,464]]"),
    ("centralizer", "--ring", "t:2:10", "[[11,421,958],[495,237,922],[497,425,806]]"),
    ("canon", "--ring", "t:2:10", "[[628,563],[793,795]]"),
    ("similar", "--ring", "t:2:10", "[[628,563],[793,795]]", "[[929,411],[479,718]]"),
    ("centralizer", "--ring", "t:2:10", "[[628,563],[793,795]]"),
    # the orbit oracle: a census over the trace-0 slice (2 does not divide
    # 3), and a verify whose census floods the whole space (2 | 2)
    ("oracle-census", "--ring", "z:2:2", "--n", "3"),
    ("verify", "--ring", "z:2:2", "--n", "2"),
]

PINNED_SHA256 = {
    "enumerate --ring z:2:2 --n 2 --group m":
        "7d2f52757847a35cb8ef312867a4c7d65c7e0c7e41875f93a0db734c923364cd",
    "enumerate --ring z:2:2 --n 2 --group gl":
        "38ad8dda866337b073bca8eff6d5fc4e1f0b8612c4ba630e5700c8ee240b6469",
    "enumerate --ring z:2:2 --n 3 --group m":
        "2d0996784b36e41ee0a3e0fc4bfe88c14abf12bf71749f87dd8068fd3805c809",
    "enumerate --ring z:2:2 --n 3 --group gl":
        "d53f49ab5fa5ff79fda34ca20fda788633b07016c0d3ec8ff7d987d26d30974f",
    "enumerate --ring t:2:2 --n 2 --group m":
        "7d2f52757847a35cb8ef312867a4c7d65c7e0c7e41875f93a0db734c923364cd",
    "enumerate --ring t:2:2 --n 2 --group gl":
        "38ad8dda866337b073bca8eff6d5fc4e1f0b8612c4ba630e5700c8ee240b6469",
    "enumerate --ring t:2:2 --n 3 --group m":
        "ca27a2d4a4438ac8cb9a6f99500a6d33c1d456b4c9dc543d28d48c8111237ff5",
    "enumerate --ring t:2:2 --n 3 --group gl":
        "74fb30503e6f74c1dd9b4d3fbc6b05c85e562495af8924469dffdbe7758421f8",
    "enumerate --ring z:3:1 --n 2 --group m":
        "32a4e07baf76fdfbafd01778f9e14f6ae3ccb10c348d1d8bbb4c91a8fd0a9d22",
    "enumerate --ring z:3:1 --n 2 --group gl":
        "46639b6906f68b25775d97f6ea4d85213e2a8b0d553fcf01c95c527d0946fb8f",
    "enumerate --ring z:3:1 --n 3 --group m":
        "719d95336193d9846ed8e380634fc8a3e5bd95e38e9f6dd0cabbef805d520e26",
    "enumerate --ring z:3:1 --n 3 --group gl":
        "04c43aa21dbf63a1adeee50721dc2aa608ec413f30b538d03d11b868af4eef6a",
    "canon --ring z:3:2 [[1,2,0],[0,1,3],[1,0,4]]":
        "d47033107193f4883a496b12839dbf37fcd1308746145a040b37be523c006f10",
    "canon --ring z:3:2 [[3,0,0],[5,3,0],[7,0,3]]":
        "74429865a6253c9e6c507f5c1fe15f0c2b36924803cbabfd2c64d7e45f6ff634",
    "canon --ring z:2:2 [[1,2,0],[0,1,1],[2,0,3]]":
        "711ab37214220cd768e6babe3dba85e1784d30848059dc820285f3219b20c8ba",
    "canon --ring z:2:2 [[1,0,0],[1,0,2],[2,2,2]]":
        "25cbfac73dd83015f6629131726172c1ac3a06201cac7eac6cb3507e38570ac1",
    "canon --ring t:2:2 [[1,1,0],[0,1,1],[0,0,1]]":
        "ed403758c93a10c93fd52c0bfc16c913104f6268c3cd83634f278f49f1e1ce6b",
    "canon --ring z:2:3 [[4,0,0],[0,4,2],[6,2,4]]":
        "edca4327321805fbab41fe24a34fc534feb26f2524feefe5b3b4858bd7e3ff1f",
    "canon --ring t:3:2 [[3,0,0],[0,3,0],[0,0,3]]":
        "a637c98e0597310d8655731b8ce0137c59073119a5714c5aea996f803f1786ab",
    "canon --ring z:5:2 [[7,3],[10,2]]":
        "04e677d5e90914d018b61eaf5a745829c74733eb77890a2c39e937f5caf6a6f8",
    "canon --ring t:2:2 [[2,1],[3,0]]":
        "b9baa38c95fcd55789cfca3200079e348c188dd977e96716626f1435f3b791f8",
    "similar --ring z:2:2 [[0,1],[0,0]] [[3,1],[3,1]]":
        "4206019de5b7d60cf66fb75f01825ded4ac7855f80ffc35d6a78fd8e5657b2d4",
    "similar --ring z:2:2 [[0,1],[0,0]] [[0,2],[0,0]]":
        "d5a57fa73cf12151b98897800c928119af21edd3ab070fd8f3eeb7ecdc3fe2e8",
    "similar --ring z:3:2 [[1,2,0],[0,1,3],[1,0,4]] [[1,0,0],[3,1,0],[2,0,4]]":
        "d5a57fa73cf12151b98897800c928119af21edd3ab070fd8f3eeb7ecdc3fe2e8",
    "similar --ring z:3:2 [[3,0,0],[5,3,0],[7,0,3]] [[5,5,1],[8,5,4],[1,7,8]]":
        "8982fe122a9f7006e552c4939c46dcc6add6ff06f9475d11023b403165e7a5c3",
    "similar --ring t:2:2 [[0,0,0],[0,0,1],[0,0,0]] [[0,0,1],[0,0,0],[0,0,0]]":
        "fac51a4960cca70caa0163c72f6bd6230ef39a5098536dc3c606cf00a23ae8ec",
    "similar --ring z:2:2 [[1,0,0],[1,0,2],[2,2,2]] [[0,1,0],[1,0,2],[2,2,2]]":
        "d5a57fa73cf12151b98897800c928119af21edd3ab070fd8f3eeb7ecdc3fe2e8",
    "centralizer --ring z:3:2 [[1,2,0],[0,1,3],[1,0,4]]":
        "2023229932a1a2a0ddeaec3f13bbbc7089961b3873b929758e9ef85fb8a358a0",
    "centralizer --ring z:3:2 [[3,0,0],[5,3,0],[7,0,3]]":
        "4331cdd95958db52cdae8e6b121fafa486696b78374add7e7cfd84b08fe81cdc",
    "centralizer --ring z:2:2 [[1,0,0],[1,0,2],[2,2,2]]":
        "1cbb4bf827fbe34e2b44d3856c089e07a44a065f6cf475e75b5b94c07e083d21",
    "centralizer --ring t:2:2 [[0,0,0],[0,0,1],[0,0,0]]":
        "5ddeec19381f8a38488d3d4aa72304d86cd2fefdd63a2b4b7ec7b4b8a9a682d8",
    "centralizer --ring z:5:2 [[7,3],[10,2]]":
        "5a8fa28c4b34f58f6f3b5691edf55770a72f6431233aa2ed8ce3e170ae8c5bdc",
    "centralizer --ring t:3:2 [[3,0],[0,3]]":
        "0b236659c2b0d98f7cbf5e171bd6214de5f0e09db34c9415a6e4b58801c49a19",
    "canon --ring t:3:2 [[7,3,2],[7,2,7],[3,6,5]]":
        "4e879c453f5493ce2edba0e0d9ef54b0c4d119aaa457d4369d9b5617efae6df0",
    "similar --ring t:3:2 [[7,3,2],[7,2,7],[3,6,5]] [[5,0,6],[7,4,7],[3,3,5]]":
        "3ae83ef6c97850d19589063aa10a43af5dce5579585fdbf8876ed6f0e71f5e01",
    "canon --ring z:7:3 [[53,19,217],[305,24,154],[19,104,274]]":
        "85f2a3a521f735effaf4cecc427aad9c46c0da3993cbd4376350c012764a45bc",
    "similar --ring z:7:3 [[53,19,217],[305,24,154],[19,104,274]] "
    "[[15,28,28],[305,62,154],[19,85,274]]":
        "42d2b48206fa1e16925eeb38cac82b99d6e1f3e22154e70e67b680fc1ba8a34d",
    "canon --ring z:1000003:2 [[414640878072,512196731706,829272756101],"
    "[1000003024403,1000005853665,5048789],[292694634182,243901195115,585365268286]]":
        "f700efa05eb551194fb2959552a21b24f67b532a61869d6746d18c6c61a5461c",
    "enumerate --ring t:3:2 --n 3 --group m":
        "7fc77be7dd3b4aa19415a8ae3499908742a459a075d80f18258214247d5676c4",
    "enumerate --ring t:3:2 --n 3 --group gl":
        "35241ca2d422b446886ab70cdf1386dcb4ebfd5f888b34e170a7b44b443ece48",
    "enumerate --ring z:2:3 --n 3 --group m":
        "0802b691b9e0f76ba826a782bc411dd03afc2e884da2e1a9383b0670a4cc64a3",
    "enumerate --ring z:2:3 --n 3 --group gl":
        "90569a8f2f625959d0f25a3fd3ccf24aa5e9e8c7608e069e9b3ea15c69842414",
    "centralizer --ring z:2:3 [[1,4,0],[0,1,2],[0,4,1]]":
        "e7fb566f557156f6bfee4e5490f3db00467bc58cfaa6ce7361c890a9484ad0bb",
    "centralizer --ring t:2:3 [[1,6,2],[4,7,2],[0,6,7]]":
        "738817f253aa3e8f7d778b1cdfde8b31852a1623db5c5f555a6f51f2ff419b58",
    "canon --ring z:3:2 [[0,5,7],[3,8,1],[6,8,1]]":
        "67befaefd6375f5d5ca96eb0f9884e421970f968019f240d4f62734444efa632",
    "canon --ring z:2:3 [[0,7,5],[2,3,3],[4,7,5]]":
        "7e2f107df1741d3fd486146c927ad6551a91e4f099b7c46cd5ca33fb8889f285",
    "canon --ring t:3:7 [[14,1326,2169],[1099,829,1735],[672,522,1271]]":
        "b56b0e120caf730b09d7c192f0173371eac0eaee2ce53ee0a885eef4e9251bbc",
    "similar --ring t:3:7 [[14,1326,2169],[1099,829,1735],[672,522,1271]] "
    "[[1667,1642,1769],[2064,295,1435],[63,510,431]]":
        "5e5bafc2bf492946992660640474b8461ace0863179f2c3da120936b35b40a3c",
    "centralizer --ring t:3:7 [[14,1326,2169],[1099,829,1735],[672,522,1271]]":
        "6b0076919a9e03bb5e8c2130992f7c1542bc73a6f1bee9ca4bd5dc9ab31d9dba",
    "canon --ring t:3:7 [[661,733,2045],[1035,2021,278],[1653,1117,1263]]":
        "23597e10e2ac11fb605560a909299b988714c389d12464dc0ac27277f5e068be",
    "similar --ring t:3:7 [[661,733,2045],[1035,2021,278],[1653,1117,1263]] "
    "[[61,573,162],[1473,935,1669],[1284,1679,1473]]":
        "4d7fd5299a5baf8f1f3570d6afda0729cbf55404ec31d8aecbd212c4a9eb9f74",
    "centralizer --ring t:3:7 [[661,733,2045],[1035,2021,278],[1653,1117,1263]]":
        "57879d8c37206aa59d7a1909d769e2563e5466fe2308147a6886de174b6e5bfb",
    "canon --ring t:3:7 [[1697,1449],[561,218]]":
        "f389d1443da8eff43d58be990c6091091aebf20cf8ee7fe09df3dbe33fd18487",
    "similar --ring t:3:7 [[1697,1449],[561,218]] [[335,624],[783,1985]]":
        "dcd69c53dc17d65cb81def8911ac76d96bbc07ad0eb6ae2ed475ce5f2590b9fe",
    "centralizer --ring t:3:7 [[1697,1449],[561,218]]":
        "ce57d85bdfe9a609ddf50035becd868d99794dd3d4f5feeedb1875bfc295d0b7",
    "canon --ring t:2:11 [[531,360,1240],[1083,1746,409],[190,12,503]]":
        "cf65d0d284d87f72ef6b820bde1e964fe937c6717aa2b3d36cd2672e9f7b3ee4",
    "similar --ring t:2:11 [[531,360,1240],[1083,1746,409],[190,12,503]] "
    "[[849,1714,1510],[1940,389,111],[1950,92,2018]]":
        "25da5239663836fda67fcc41e2a4bde08b843fe0ebdf24c20c75aa8b31287587",
    "centralizer --ring t:2:11 [[531,360,1240],[1083,1746,409],[190,12,503]]":
        "4a14df545d4cc38c4bbfd0470512e1d88f2fa544da419985d0a5dd1bb60eef0e",
    "canon --ring t:2:11 [[1772,1444,606],[1888,1572,2000],[273,98,1146]]":
        "7db121d8e0b9b32b379c054fd2027ad690d382a12396ab6687607cc87ef035b6",
    "similar --ring t:2:11 [[1772,1444,606],[1888,1572,2000],[273,98,1146]] "
    "[[106,1606,1518],[2009,145,1209],[1745,231,1097]]":
        "2b05de4fde193869d473cbba10bfd7fd0598ed5d7ce30bebf236f4178c31d869",
    "centralizer --ring t:2:11 [[1772,1444,606],[1888,1572,2000],[273,98,1146]]":
        "4a14df545d4cc38c4bbfd0470512e1d88f2fa544da419985d0a5dd1bb60eef0e",
    "canon --ring t:2:11 [[1003,1145],[1876,333]]":
        "8df78385fe6f5cc5c9ae77f9a33b8ea3a4e701a70190f06f3d3ecd84015584e1",
    "similar --ring t:2:11 [[1003,1145],[1876,333]] [[1853,31],[1212,1435]]":
        "af77071af6a3bbd164263776c7a5dd0df571951a05bf9b96b0f8787f570c1ffa",
    "centralizer --ring t:2:11 [[1003,1145],[1876,333]]":
        "b6fd07347e839371b55dc96dc9c68de93d3690b49ead2ec6ce7a9ce8e5d4c237",
    "canon --ring t:3:6 [[313,6,615],[514,557,78],[631,3,185]]":
        "5b7a273f6ab4814a400cef20f1fa989a2050e02de81b07560bbe07031bfd5c08",
    "similar --ring t:3:6 [[313,6,615],[514,557,78],[631,3,185]] "
    "[[275,99,492],[183,566,177],[75,315,214]]":
        "5cd9ac006a35ea65be11432aad022fd85453216ce04d7771b014ee9898660805",
    "centralizer --ring t:3:6 [[313,6,615],[514,557,78],[631,3,185]]":
        "7df4eb72e9fe9c1461b0cb3cfe4b62909e278aebc321057d8ae7c7d9b46ddcd0",
    "canon --ring t:3:6 [[177,564,687],[484,165,667],[312,0,288]]":
        "481386b559b7bb7ec2a68e6c4441c05863a38af9ac653981c07b0627513f470a",
    "similar --ring t:3:6 [[177,564,687],[484,165,667],[312,0,288]] "
    "[[111,412,515],[15,467,100],[342,449,109]]":
        "1128b65c62ea4db1617692324ccead8cb42b71ba3bb2aea96fa12affbc9c9d30",
    "centralizer --ring t:3:6 [[177,564,687],[484,165,667],[312,0,288]]":
        "450d6ab97d0d3a80964e12f19d3a4d3ff04152b860d80e6ae3407e0f5667bf70",
    "canon --ring t:3:6 [[530,183],[303,400]]":
        "758971d05169d1f436cdfad3ff68416e159278bd39fbafedaca546a987512d08",
    "similar --ring t:3:6 [[530,183],[303,400]] [[561,377],[323,366]]":
        "63be1e415c8c86c1f0f2c8a9735f1722d62d829d8cb8e796b9867148c91074b0",
    "centralizer --ring t:3:6 [[530,183],[303,400]]":
        "3642bb682d10025b160ad3e22643f73d2dc9ac7fff37cdc3bcb52ba3e775f362",
    "canon --ring t:2:10 [[153,76,762],[77,8,10],[311,784,390]]":
        "1f19aa66a4677a126f9650284192ecbc5255d5c4d0904eb5b63c1d2167c1092f",
    "similar --ring t:2:10 [[153,76,762],[77,8,10],[311,784,390]] "
    "[[503,840,564],[586,644,648],[593,864,612]]":
        "6829bc27291db1ddffee17617478d29afe4c951a5364f4b68b7d29fdacfd497f",
    "centralizer --ring t:2:10 [[153,76,762],[77,8,10],[311,784,390]]":
        "2a7ff6ba1c808bd1563d6062efe33a6d8b5e5231f4596eecdbfad7c903c70179",
    "canon --ring t:2:10 [[11,421,958],[495,237,922],[497,425,806]]":
        "402d482d9d238b9b0df53e9d3fd190790f211899e8aca1c46bcd38b9ed6478e8",
    "similar --ring t:2:10 [[11,421,958],[495,237,922],[497,425,806]] "
    "[[1004,514,674],[838,508,202],[715,159,464]]":
        "2b7e1e1576a5246d9ab46d9b472f6b654cd3ebec801bbf244bae021e192212d9",
    "centralizer --ring t:2:10 [[11,421,958],[495,237,922],[497,425,806]]":
        "2a7ff6ba1c808bd1563d6062efe33a6d8b5e5231f4596eecdbfad7c903c70179",
    "canon --ring t:2:10 [[628,563],[793,795]]":
        "8f803c125995d2bef339338ca7368e738ff4f5750230339c9880ab095df09305",
    "similar --ring t:2:10 [[628,563],[793,795]] [[929,411],[479,718]]":
        "b8c484cbe39f41e3f17bccebce7c8f12870203dd01a8cf9d9235d6e74dbd613f",
    "centralizer --ring t:2:10 [[628,563],[793,795]]":
        "b53fa46787e814fe9e1b9716690324150d46357399ddae934cc28d6b5dad468a",
    "oracle-census --ring z:2:2 --n 3":
        "3b98b3727db3c66c4246b8073ff13e23673a2561122944fb42253480a6f13369",
    "verify --ring z:2:2 --n 2":
        "ed704482e59e50c9fcd03489e0394db266f07c9b629b320d7e1c7f6e00c5fbe8",
}


def test_cli_output_is_pinned(capsys):
    got = {}
    for argv in PINNED_CALLS:
        code, out, _ = run(capsys, *argv)
        got[" ".join(argv)] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == PINNED_SHA256
