"""The benchmark's traced mode wraps names that the package must keep."""


def test_every_trace_target_resolves(perfbench_run):
    targets = perfbench_run.trace_targets()
    assert targets
    missing = [(module.__name__, attr) for module, attr, _ in targets
               if not hasattr(module, attr)]
    assert missing == []
