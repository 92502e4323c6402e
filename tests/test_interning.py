"""Variable interning: one live object per name, a table that forgets dead
names, and translations that do not depend on the address-based hash order
interning gives."""

import copy
import gc
import hashlib
import pickle
import random
import sys
import threading

import pytest

from repro.bench.suite import build_suite
from repro.ir.instructions import _INTERNED, Variable
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.pipeline import Pipeline
from tests import test_congruence
from tests.helpers import variable_occurrences


def _numbered_function(number, prefix):
    """A small function whose every variable name carries ``prefix`` and ``number``."""
    v = f"{prefix}{number}_"
    return (
        f"function f{number}({v}a, {v}b) {{\n"
        f"  pin {v}a R1\n"
        f"  entry:\n"
        f"    {v}x = add {v}a, {v}b\n"
        f"    br {v}x, body, done\n"
        f"  body:\n"
        f"    {v}y = phi [entry: {v}x, body: {v}z]\n"
        f"    {v}z = mul {v}y, 2\n"
        f"    br {v}z, body, done\n"
        f"  done:\n"
        f"    {v}r = phi [entry: {v}a, body: {v}z]\n"
        f"    ret {v}r\n"
        f"}}\n"
    )


def _race(work, workers=4):
    """Run ``work`` on ``workers`` threads (more than the cores), released
    together and switching often; return each thread's result."""
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def run(slot):
        barrier.wait()
        results[slot] = work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return results


class TestInternTable:
    def test_same_name_is_same_object(self):
        assert Variable("k") is Variable("k")
        assert Variable("k") == Variable("k")
        assert Variable("k") != Variable("k2")
        assert {Variable("k"): 1}[Variable("k")] == 1

    def test_name_is_never_reassigned(self):
        var = Variable("k")
        with pytest.raises(AttributeError):
            var.name = "other"
        assert var.name == "k" and Variable("k") is var

    def test_concurrent_parses_get_one_object_per_name(self):
        # More threads than cores parse the same never-seen names at the same
        # time, so they race to create each name's object.
        parsed = _race(lambda: [parse_function(_numbered_function(n, "race")) for n in range(40)])
        by_name = {}
        for functions in parsed:
            assert len(functions) == 40
            for function in functions:
                for var in variable_occurrences(function):
                    assert by_name.setdefault(var.name, var) is var, var
                    assert _INTERNED[var.name]() is var
        assert len(by_name) == 40 * 6

    def test_concurrent_creation_gets_one_object_per_name(self):
        # Creating names back to back keeps the threads in step, so a lookup
        # and an insert that are not made atomic show up as a second object.
        made = _race(lambda: [Variable(f"made{number}") for number in range(20000)])
        for number, first in enumerate(made[0]):
            assert all(others[number] is first for others in made[1:]), first

    def test_dead_names_leave_the_table(self):
        functions = [parse_function(_numbered_function(number, "gone")) for number in range(1000)]
        names = {var.name for function in functions for var in variable_occurrences(function)}
        assert len(names) == 1000 * 6
        assert names <= set(_INTERNED)
        del functions
        gc.collect()
        assert not names & set(_INTERNED)

    def test_copies_are_the_same_object(self):
        var = Variable("copied")
        assert copy.copy(var) is var
        assert copy.deepcopy(var) is var
        assert copy.deepcopy([var, var]) == [var, var]
        assert pickle.loads(pickle.dumps(var)) is var


class TestHashOrderIndependence:
    """Hashes follow object addresses, so set iteration order can differ from
    one translation to the next within a process.  The printed IR must not."""

    def _suite_digests(self, order):
        functions = [f for group in build_suite(1.0).values() for f in group]
        texts = {}
        for index in order:
            for engine in test_congruence.TestSuiteCounterSums.IR_SHA256:
                translated = functions[index].copy()
                Pipeline.for_engine(engine).run(translated)
                texts[engine, index] = format_function(translated)
        digests = {}
        for engine in test_congruence.TestSuiteCounterSums.IR_SHA256:
            digest = hashlib.sha256()
            for index in range(len(functions)):
                digest.update(texts[engine, index].encode())
            digests[engine] = digest.hexdigest()
        return digests

    def test_two_rounds_with_unrelated_allocations_in_between(self):
        first = self._suite_digests(range(65))
        gc.collect()
        # Unrelated Variables and sets, alive until the test ends, now hold
        # the addresses the first round's variables had.
        junk = [Variable(f"junk{number}") for number in range(5000)]
        junk_sets = [{var} for var in junk[::7]]
        order = list(range(65))
        random.Random(22).shuffle(order)
        second = self._suite_digests(order)
        assert first == test_congruence.TestSuiteCounterSums.IR_SHA256
        assert second == test_congruence.TestSuiteCounterSums.IR_SHA256
