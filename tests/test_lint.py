"""The determinism lint (``repro lint``): every rule, and self-hosting."""

import textwrap

from repro.analysis.lint import (
    RULES,
    LintViolation,
    lint_paths,
    lint_source,
)


def lint(snippet, path="src/repro/example.py"):
    return lint_source(textwrap.dedent(snippet), path=path)


def codes(snippet, path="src/repro/example.py"):
    return [v.code for v in lint(snippet, path=path)]


# -- CRZ001: wall clock ---------------------------------------------------


def test_wallclock_time_module_flagged():
    assert codes("""
        import time

        def stamp():
            return time.time()
    """) == ["CRZ001"]


def test_wallclock_variants_flagged():
    snippet = """
        import time
        import datetime
        from datetime import datetime as dt

        def stamps():
            return (time.monotonic(), time.perf_counter_ns(),
                    datetime.datetime.now(), datetime.date.today())
    """
    assert codes(snippet) == ["CRZ001"] * 4


def test_wallclock_allowed_in_rand_module():
    snippet = """
        import time

        def seed():
            return time.time_ns()
    """
    assert codes(snippet, path="src/repro/sim/rand.py") == []
    # The exemption is per-file: the same code elsewhere is flagged.
    assert codes(snippet, path="src/repro/sim/clock.py") == ["CRZ001"]


def test_sim_clock_not_flagged():
    assert codes("""
        def stamp(sim):
            return sim.now
    """) == []


# -- CRZ002: unseeded random ----------------------------------------------


def test_global_random_flagged():
    assert codes("""
        import random

        def pick(items):
            return random.choice(items)
    """) == ["CRZ002"]


def test_seeded_random_instance_allowed():
    assert codes("""
        import random

        def stream(seed):
            return random.Random(seed)
    """) == []


def test_unseeded_random_instance_flagged():
    assert codes("""
        import random

        def stream():
            return random.Random()
    """) == ["CRZ002"]


# -- CRZ003: swallowed exception ------------------------------------------


def test_except_pass_flagged_on_except_line():
    violations = lint("""
        def close(fd):
            try:
                fd.close()
            except OSError:
                pass
    """)
    assert [v.code for v in violations] == ["CRZ003"]
    # Flagged at the ``except`` line, so that is where noqa goes.
    assert violations[0].line == 5


def test_except_with_handling_not_flagged():
    assert codes("""
        def close(fd, log):
            try:
                fd.close()
            except OSError as error:
                log.append(error)
    """) == []


# -- CRZ004: netfilter pairing --------------------------------------------


def test_unpaired_drop_all_for_flagged():
    assert codes("""
        def pause(node, pod):
            rule_id = node.stack.netfilter.drop_all_for(pod.ip)
            return rule_id
    """) == ["CRZ004"]


def test_drop_all_for_with_finally_removal_allowed():
    assert codes("""
        def pause(node, pod):
            rule_id = node.stack.netfilter.drop_all_for(pod.ip)
            try:
                work(pod)
            finally:
                node.stack.netfilter.remove_rule(rule_id)
    """) == []


def test_finally_in_other_function_does_not_excuse():
    assert codes("""
        def pause(node, pod):
            return node.stack.netfilter.drop_all_for(pod.ip)

        def unpause(node, rule_id):
            try:
                pause_done(node)
            finally:
                node.stack.netfilter.remove_rule(rule_id)
    """) == ["CRZ004"]


# -- CRZ005: span balance -------------------------------------------------


def test_begin_without_end_flagged():
    assert codes("""
        def round(spans):
            span = spans.begin("agent.local")
            return span
    """) == ["CRZ005"]


def test_begin_with_end_allowed():
    assert codes("""
        def round(spans):
            span = spans.begin("agent.local")
            try:
                work()
            finally:
                spans.end(span)
    """) == []


def test_span_context_manager_allowed():
    assert codes("""
        def round(trace):
            with trace.spans.span("agent.local"):
                work()
    """) == []


def test_begin_on_trace_spans_attribute_flagged():
    assert codes("""
        def round(node):
            return node.trace.spans.begin("agent.local")
    """) == ["CRZ005"]


# -- CRZ006: id() ordering ------------------------------------------------


def test_sorted_by_id_flagged():
    assert codes("""
        def order(items):
            return sorted(items, key=id)
    """) == ["CRZ006"]


def test_lambda_id_key_flagged():
    assert codes("""
        def order(items):
            items.sort(key=lambda item: (id(item), item))
    """) == ["CRZ006"]


def test_id_comparison_flagged():
    assert codes("""
        def dedup(obj, seen):
            return id(obj) in seen
    """) == ["CRZ006"]


def test_id_in_heap_entry_flagged():
    assert codes("""
        from heapq import heappush

        def push(heap, item):
            heappush(heap, (0, id(item), item))
    """) == ["CRZ006"]


def test_stable_key_not_flagged():
    assert codes("""
        def order(items):
            return sorted(items, key=lambda item: item.name)
    """) == []


# -- CRZ008: unbounded retry loops -----------------------------------------


def test_unpaced_retry_loop_flagged():
    assert codes("""
        def retry_forever(self, message):
            while True:
                self.endpoint.send(message)
    """) == ["CRZ008"]


def test_retransmit_variants_flagged():
    snippet = """
        def storm_a(self):
            while True:
                self.retransmit()

        def storm_b(sock, data, addr):
            while True:
                sock.sendto(data, addr)
    """
    assert codes(snippet) == ["CRZ008", "CRZ008"]


def test_paced_retry_loop_not_flagged():
    # The heartbeat pattern: an infinite loop is fine when each lap
    # yields on a timer.
    assert codes("""
        def heartbeat_loop(self):
            while True:
                yield self.sim.timeout(self.interval_s)
                self.endpoint.send_unreliable(self.beat())
    """) == []


def test_bounded_retry_loop_not_flagged():
    # protocol.RetryPolicy's shape: a for-range budget, not while True.
    assert codes("""
        def retransmit_loop(self, message):
            for attempt in range(self.policy.max_retries):
                self.send(message)
                yield self.sim.timeout(self.policy.backoff(attempt))
    """) == []


def test_send_inside_nested_def_not_attributed_to_loop():
    # A closure defined in the loop sends on its own schedule; the loop
    # itself is a plain dispatcher.
    assert codes("""
        def dispatcher(self):
            while True:
                def flush():
                    self.endpoint.send(self.pending)
                self.callbacks.append(flush)
                if self.done:
                    break
    """) == []


def test_non_sending_infinite_loop_not_flagged():
    assert codes("""
        def drain(queue):
            while True:
                entry = queue.pop_due(1.0)
                if entry is None:
                    break
    """) == []


def test_crz008_noqa_with_reason_suppresses():
    assert codes("""
        def blast(self, message):
            # paced by the caller's token bucket
            while True:  # cruz: noqa[CRZ008]
                self.send(message)
    """) == []


# -- noqa suppression ------------------------------------------------------


def test_bare_noqa_suppresses_everything_on_the_line():
    assert codes("""
        import time

        def stamp():
            return time.time()  # cruz: noqa
    """) == []


def test_coded_noqa_suppresses_only_listed_rules():
    snippet = """
        import time
        import random

        def stamp():
            return time.time()  # cruz: noqa[CRZ001]

        def pick(items):
            return random.choice(items)  # cruz: noqa[CRZ001]
    """
    assert codes(snippet) == ["CRZ002"]


def test_noqa_must_sit_on_the_flagged_line():
    assert codes("""
        import time

        # cruz: noqa[CRZ001]
        def stamp():
            return time.time()
    """) == ["CRZ001"]


# -- rendering and catalog -------------------------------------------------


def test_render_includes_location_code_and_hint():
    violation = LintViolation(path="src/repro/x.py", line=3, col=4,
                              code="CRZ001")
    text = violation.render()
    assert text.startswith("src/repro/x.py:3:4 CRZ001 ")
    assert RULES["CRZ001"][0] in text
    assert RULES["CRZ001"][1] in text


def test_every_rule_has_title_and_hint():
    for code, (title, hint) in RULES.items():
        assert code.startswith("CRZ")
        assert title and hint


# -- injected wall-clock acceptance case + self-hosting -------------------


def test_injected_wallclock_file_is_flagged(tmp_path):
    bad = tmp_path / "leaky.py"
    bad.write_text(textwrap.dedent("""
        import time

        def now():
            return time.time()
    """))
    violations = lint_paths([bad])
    assert [v.code for v in violations] == ["CRZ001"]
    assert violations[0].path == str(bad)


def test_repro_tree_is_lint_clean():
    assert lint_paths() == []
