"""Self-tests for the benchmark's generators, checker and child guards.

    python3 bench/selftest.py        (from the repository root)
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import native  # noqa: E402
from common import (  # noqa: E402
    FORWARD_FAMILY, REVERSE_FAMILY, Outcomes, chain_eval, chain_fd,
    check_gradients, summary,
)


def _inputs(seed: int):
    """Everything the workloads generate from one seed, as text."""
    from adlc.emit import emit_c
    from adlc.ir_opt import ir_optimize
    from adlc.staging import stage_reverse, stage_tree
    from adlc.syntax import parse

    rng = random.Random(f"compile:{seed}")
    probes = gen.probe_points(rng, 3)
    chains = [gen.chain_source(gen.chain(rng, n, probes)) for n in (25, 50)]
    rng = random.Random(f"control:{seed}")
    c = gen.loop_factor(rng)
    k = gen.tree_scale(rng)
    trees = [gen.tree_preorder(gen.tree(rng, d)) for d in (6, 7)]
    loop_cc = gen.harness(emit_c(ir_optimize(stage_reverse(parse(
        gen.loop_source(c))))), gen.LOOP_MAIN)
    tree_cc = gen.harness(emit_c(ir_optimize(stage_tree(parse(
        gen.tree_body(k))))), gen.TREE_MAIN)
    return {"chains": chains, "trees": trees, "loop_cc": loop_cc,
            "tree_cc": tree_cc}


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(_inputs(7), _inputs(7))

    def test_other_seed_other_inputs(self):
        a, b = _inputs(7), _inputs(8)
        for key in a:
            self.assertNotEqual(a[key], b[key], key)


class Generators(unittest.TestCase):
    def test_chains_stay_bounded_and_differentiable(self):
        rng = random.Random(3)
        probes = gen.probe_points(rng, 3)
        ch = gen.chain(rng, 200, probes)
        for x in probes:
            v, d = chain_eval(ch, x, 1.0)
            self.assertLessEqual(abs(v), gen.CHAIN_BOUND)
            self.assertLessEqual(abs(chain_fd(ch, x) - d), 1e-6 * max(1.0, abs(d)))

    def test_chain_source_parses_to_the_chain(self):
        from adlc.gradcheck import primal_fn
        from adlc.syntax import parse

        rng = random.Random(4)
        ch = gen.chain(rng, 30, (0.5,))
        self.assertEqual(primal_fn(parse(gen.chain_source(ch)))(0.75),
                         chain_eval(ch, 0.75)[0])

    def test_loop_inputs_run_the_requested_iterations(self):
        c = gen.loop_factor(random.Random(5))
        for n in (250, 500, 1000):
            self.assertEqual(gen.loop_iterations(c, gen.loop_input(c, n)), n)


class Checker(unittest.TestCase):
    def _cell(self):
        rng = random.Random(6)
        ch = gen.chain(rng, 12, (0.8,))
        from adlc.gradcheck import ProgramGradients, ALL_MODES
        from adlc.syntax import parse

        pg = ProgramGradients(parse(gen.chain_source(ch)))
        grads = {m: pg.grad(m, 0.8) for m in ALL_MODES}
        return grads, chain_eval(ch, 0.8, 1.0)[1], chain_fd(ch, 0.8)

    def test_real_gradients_pass(self):
        grads, exact, fd = self._cell()
        self.assertIsNone(check_gradients(grads, exact, fd))

    def test_perturbed_gradient_fails(self):
        grads, exact, fd = self._cell()
        for mode in FORWARD_FAMILY + REVERSE_FAMILY:
            bad = dict(grads)
            bad[mode] = grads[mode] + abs(grads[mode]) * 2.0 ** -40 + 1e-300
            self.assertIsNotNone(check_gradients(bad, exact, fd), mode)
        shifted = {m: v * (1 + 1e-6) for m, v in grads.items()}
        self.assertIsNotNone(check_gradients(shifted, exact, fd))

    def test_probe_failures_count_only_toward_fail_ratio(self):
        out = Outcomes()
        out.record("a", None)
        out.probe("p", "known defect", "RecursionError")
        self.assertEqual((out.attempted, out.failed), (1, 0))
        self.assertEqual(out.fail_ratio(), 2 / 3)
        out.probe("q", "known defect", "wrong value", unexpected=True)
        self.assertEqual(out.failed, 1)


class Summary(unittest.TestCase):
    def test_percentile_has_ten_samples_beyond(self):
        s = summary([float(i) for i in range(100)])
        self.assertEqual(s["n"], 100)
        self.assertIn("p90", s)
        self.assertNotIn("p90", summary([1.0] * 50))


@unittest.skipUnless(native.available(), "g++ not found")
class ChildGuards(unittest.TestCase):
    def test_timeout_and_address_space_limit(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            slow = native.run([sys.executable, "-c", "import time; time.sleep(30)"],
                              out, timeout_s=0.5)
            self.assertTrue(slow.timed_out)
            self.assertIsNotNone(slow.failure())
            big = native.run([sys.executable, "-c", "b = bytearray(2 << 30)"], out)
            self.assertNotEqual(big.exit_code, 0)
            ok = native.run([sys.executable, "-c", "print('0x1p+0 5')"], out)
            self.assertIsNone(ok.failure())
            self.assertEqual(native.parse_calls(ok.stdout), [(1.0, 5)])
            self.assertGreater(ok.max_rss_mb, 0)


if __name__ == "__main__":
    unittest.main()
