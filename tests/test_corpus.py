"""Replay tests/fixtures/corpus.jsonl in process: every stored request must
exit with its stored code and print bytes with its stored sha256. The corpus
pins bytes, not truth; make_corpus.py says how it was written."""

import collections
import hashlib
import json
import pathlib

from fatf.cli import COMMANDS, run

CORPUS = pathlib.Path(__file__).parent / "fixtures" / "corpus.jsonl"


def _cases() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def test_corpus_replays_byte_identically():
    for i, case in enumerate(_cases(), start=1):
        code, out = run(case["argv"], case["stdin"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (case["exit"], case["sha256"]), (
            f"line {i}, case {case['case']!r} ({' '.join(case['argv'])}) now exits {code} with {out[:300]!r}"
        )


def test_corpus_covers_every_subcommand_and_mostly_answers():
    cases = _cases()
    by_command = collections.Counter(case["argv"][0] for case in cases)
    assert set(by_command) == set(COMMANDS)
    assert sum(case["exit"] == 0 for case in cases) >= 0.8 * len(cases)
