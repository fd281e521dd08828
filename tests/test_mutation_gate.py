"""A seeded mutation gate over every command.

Mutated copies of the example inputs, of a `.hmt` table (its trailer
recomputed, so the damage reaches past the digest check) and of the
HM_BUDGET value run through `cli.main` in-process.  Every call must end
with exit code 0, 1 or 2, let no exception escape and finish within a time
bound.  On exit 1 stderr is one `error:` line, or nothing for the NO verdict
of `ksh` and `ov`; on exit 2 its last line names the error, below argparse's
usage text when there is one.  The mutants are drawn from fixed seeds, so
the gate runs the same calls every time.
"""

import contextlib
import hashlib
import io
import random
import signal
from pathlib import Path

from hypergraphlets import cli

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"
BUDGET = "20000"
CALL_SECONDS = 20  # a bound for hangs, far above any call's cost
MUTANTS = 80  # per input file
# Bytes an edit writes: the input formats' own characters, and some others.
ALPHABET = b"0123456789  \n\n\t#-.%xv\xff\x00"


class CallTimedOut(Exception):
    pass


def mutate(rng, data, alphabet=ALPHABET):
    """data with 1 to 4 bytes changed, inserted or deleted."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(data) + 1)
        op = rng.choice("cid") if i < len(data) else "i"
        if op == "d" and len(data) > 1:
            del data[i]
        elif op == "c":
            data[i] = rng.choice(alphabet)
        else:
            data.insert(i, rng.choice(alphabet))
    return bytes(data)


def with_trailer(body):
    return body + hashlib.sha256(body).digest()


def call(argv, monkeypatch, budget=BUDGET):
    """(exit code, stderr) of cli.main(argv) under HM_BUDGET=budget, with
    stdout dropped and the call's time bounded."""
    monkeypatch.setenv("HM_BUDGET", budget)
    out, err = io.StringIO(), io.StringIO()

    def timed_out(_signum, _frame):
        raise CallTimedOut(argv)

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def check(argv, code, err, verdict):
    """The gate's promise for one finished call; verdict: the command can
    answer NO with exit 1 and an empty stderr."""
    where = "%r: exit %r, stderr %r" % (argv, code, err)
    assert code in (0, 1, 2), where
    lines = err.splitlines()
    if code == 1:
        if verdict and not lines:
            return
        assert len(lines) == 1 and lines[0].startswith("error: "), where
    elif code == 2:
        assert lines and "error: " in lines[-1], where


def test_mutated_inputs_end_in_an_exit_code_and_one_error_line(tmp_path, monkeypatch):
    rng = random.Random("mutation gate")
    table = tmp_path / "toy.hmt"
    assert call(["build", str(DATA / "toy.hg"), "-k", "3", "--seed", "g",
                 "-o", str(table)], monkeypatch)[0] == 0
    table_body = table.read_bytes()[:-32]
    hg, el, ov, hmt = (tmp_path / name for name in ("m.hg", "m.el", "m.txt", "m.hmt"))
    out = str(tmp_path / "out")
    commands = [
        (hg, DATA / "toy.hg", [
            ["stats", str(hg)],
            ["curve", str(hg)],
            ["split", str(hg), "-o", out],
            ["build", str(hg), "-k", "3", "--seed", "g", "-o", out],
            ["count", str(hg), "-k", "3", "--samples", "20", "--seed", "g"],
            ["exact", str(hg), "-k", "3"],
            ["ksh", str(hg), "-k", "3"],
        ]),
        (el, DATA / "k4.el", [
            ["stats", str(el)],
            ["reduce-clique", str(el), "-k", "3", "-o", out],
            ["ksh", str(el), "-k", "3", "--reduce"],
        ]),
        (ov, DATA / "ov_yes.txt", [["ov", str(ov)]]),
    ]
    calls = 0
    for path, source, argvs in commands:
        original = source.read_bytes()
        for _ in range(MUTANTS):
            path.write_bytes(mutate(rng, original))
            for argv in argvs:
                check(argv, *call(argv, monkeypatch), verdict=argv[0] in ("ksh", "ov"))
                calls += 1
    sample = ["sample", str(DATA / "toy.hg"), "--table", str(hmt),
              "--samples", "20", "--seed", "g"]
    for _ in range(MUTANTS):
        hmt.write_bytes(with_trailer(mutate(rng, table_body, bytes(range(256)))))
        check(sample, *call(sample, monkeypatch), verdict=False)
        calls += 1
    # The budget itself: every command that reads it, under mutated values.
    reads_budget = [["exact", str(DATA / "toy.hg"), "-k", "3"],
                    ["ksh", str(DATA / "toy.hg"), "-k", "3"],
                    ["count", str(DATA / "toy.hg"), "-k", "3", "--samples", "20"]]
    for _ in range(MUTANTS):
        budget = mutate(rng, BUDGET.encode(), b"0123456789 -+x_.e").decode()
        for argv in reads_budget:
            check(argv, *call(argv, monkeypatch, budget), verdict=argv[0] == "ksh")
            calls += 1
    assert calls == MUTANTS * 15
