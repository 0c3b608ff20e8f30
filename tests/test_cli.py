"""Command line surface: output shapes, exit codes, witness conventions."""

import json
import os
import subprocess
import sys

from simclass import Mat, ring_ctx
from simclass.cli import (
    EX_BUDGET,
    EX_DIFFERENT,
    EX_MISMATCH,
    EX_OK,
    EX_USAGE,
    main,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args, timeout):
    """Run a fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


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


def test_canon_hard_input_over_z125_returns():
    # one characteristic-polynomial bucket, not the whole ring's index
    proc = run_python("-m", "simclass.cli", "canon", "--ring", "z:5:3",
                      "[[0,0,0],[0,0,1],[0,0,0]]", timeout=60)
    assert proc.returncode == EX_OK, proc.stderr
    assert json.loads(proc.stdout)["form"]["body"]["kind"] == "hard"


def test_broken_witness_exits_70_under_optimize():
    # a cyclic-residue input that is not a companion matrix, with the row
    # witness replaced by the identity: the exact check must still fire
    # under -O, which strips assert statements
    script = (
        "import importlib, sys\n"
        "from simclass.cli import main\n"
        "from simclass.matrix import identity\n"
        "c3 = importlib.import_module('simclass.canon3')\n"
        "c3._cyclic_row_witness = lambda beta: identity(beta.ctx, 3)\n"
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
    # a doubled |S| makes the centralizer of J(0,0) over F_2 count 16,
    # which does not divide |GL_3(F_2)| = 168
    script = (
        "import importlib, sys\n"
        "from simclass.cli import main\n"
        "ms = importlib.import_module('simclass.modsolve')\n"
        "real = ms.smith_kernel\n"
        "def doubled(ctx, mat):\n"
        "    gens, size = real(ctx, mat)\n"
        "    return gens, 2 * size\n"
        "ms.smith_kernel = doubled\n"
        "sys.exit(main(['centralizer', '--ring', 'z:2:1', '[[0,0,0],[0,0,1],[0,0,0]]']))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "does not divide" in proc.stderr


def test_broken_block_split_raises_under_optimize():
    # with the 2x2 solves zeroed the refinement never clears the blocks;
    # the final witness check must still fire under -O
    script = (
        "import importlib, sys\n"
        "from simclass import Mat, VerificationFailed, hensel_block_split, ring_ctx\n"
        "c3 = importlib.import_module('simclass.canon3')\n"
        "c3._solve2 = lambda *args: (0, 0)\n"
        "m = Mat.from_rows(ring_ctx('z', 2, 2), [[1, 0, 0], [1, 0, 2], [2, 2, 2]])\n"
        "try:\n"
        "    hensel_block_split(m)\n"
        "except VerificationFailed:\n"
        "    sys.exit(0)\n"
        "sys.exit('no VerificationFailed')\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_oracle_partition_mismatch_exits_70_under_optimize(tmp_path):
    # a bitmap marker that also marks one neighbour of every batch loses
    # states from the census; the partition check must fire under -O
    script = (
        "import importlib, sys\n"
        "from simclass import VerificationFailed, ring_ctx\n"
        "from simclass.cli import main\n"
        "o = importlib.import_module('simclass.oracle')\n"
        "real = o._set_bits\n"
        "def leaky(bitmap, ids):\n"
        "    real(bitmap, ids)\n"
        "    real(bitmap, ids[:1] ^ 1)\n"
        "o._set_bits = leaky\n"
        "try:\n"
        "    o.orbit_census(ring_ctx('z', 2, 1), 3, want_labels=True)\n"
        "    sys.exit('no VerificationFailed')\n"
        "except VerificationFailed:\n"
        "    pass\n"
        f"sys.exit(main(['oracle-census', '--ring', 'z:2:1', '--cache', {str(tmp_path)!r}]))\n"
    )
    proc = run_python("-O", "-c", script, timeout=60)
    assert proc.returncode == EX_MISMATCH, proc.stderr
    assert "verification failed" in proc.stderr
    assert os.listdir(tmp_path) == []  # nothing cached from a failed census


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


# ----------------------------------------------------------------------
# failure modes


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "count", "--q", "2")[0] == EX_USAGE  # missing --level
    assert run(capsys, "count", "--group", "sl", "--q", "2", "--level", "1")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:9:1", "[[1,0],[0,1]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "q:2:2", "[[1,0],[0,1]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "/no/such/file")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "[[1,0],[0,1],[0,0]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "[[1.9,0],[0,0]]")[0] == EX_USAGE
    assert run(capsys, "canon", "--ring", "z:2:2", "[[true,0],[0,0]]")[0] == EX_USAGE
    assert run(capsys, "nonsense")[0] == EX_USAGE


def test_budget_exit_65(capsys):
    code, _, _ = run(capsys, "enumerate", "--ring", "z:5:3", "--budget", "10")
    assert code == EX_BUDGET


def test_output_is_deterministic(capsys):
    args = ("enumerate", "--ring", "z:2:2", "--n", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
