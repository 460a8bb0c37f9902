"""Workload `corpus`: the real user mix of docs/corpus/manifest.txt.

Each round runs every manifest entry as its own `cli.run` call, in an order
shuffled by the seed, and then the whole manifest as one structured `batch`.
This is the only workload that loads `documents` and `cli`.  Known answers
are the manifest's expected exit codes and the SHA-256 of the structured
batch output, which does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import io
import random

from entropykit import cli

from manifest import MANIFEST, manifest_entries

TRACE_ROUNDS = 3
# sha256 of `entropykit batch docs/corpus/manifest.txt --format structured`
# at any seed; entropykit's output must stay byte-identical across changes.
BATCH_SHA256 = "7278b3ba4c942045bcd5de99ea915ffa2d3adfa365792351f00a393bcccd6835"


def generate(seed: int, count: int, stream: str = "run") -> list[dict]:
    entries = manifest_entries()
    rounds = []
    for r in range(count):
        order = list(entries)
        random.Random(f"corpus:{stream}:{seed}:{r}").shuffle(order)
        rounds.append({"entries": order, "seed": seed})
    return rounds


def _entry_task(command: str, doc: str, expected: int, seed: int):
    argv = [command, doc, "--format", "structured", "--seed", str(seed)]

    def prepare():
        return lambda: cli.run(argv, io.StringIO()), lambda code: code == expected

    return (command, prepare)


def _batch_task(seed: int):
    argv = ["batch", MANIFEST, "--format", "structured", "--seed", str(seed)]

    def prepare():
        out = io.StringIO()

        def call():
            return cli.run(argv, out), out.getvalue()

        def check(result) -> bool:
            code, text = result
            return code == 0 and hashlib.sha256(text.encode()).hexdigest() == BATCH_SHA256

        return call, check

    return ("batch", prepare)


def tasks(desc) -> list:
    out = [_entry_task(c, d, e, desc["seed"]) for c, d, e in desc["entries"]]
    out.append(_batch_task(desc["seed"]))
    return out
