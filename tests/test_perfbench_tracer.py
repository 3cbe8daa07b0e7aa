"""perfbench's tracer wraps library functions by name from outside the
library. A rename in the library must fail here, in tier 1, and not only
in a later traced benchmark run."""

import sys
from pathlib import Path

import chunkmem.attention
import chunkmem.stack
import chunkmem.tasks
from chunkmem.stack import Model, ModelConfig
from chunkmem.tasks import generate_pai_episode
from chunkmem.tensor import GradTape

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_tracer_installs_records_and_uninstalls():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads  # noqa: F401  imports every module the tracer reads
        from tracer import Tracer
    finally:
        sys.path.remove(PERFBENCH)
    import chunkmem

    watched = [(chunkmem.tasks, "pai_forward"), (chunkmem.tasks, "hcam_block"),
               (chunkmem.tasks, "local_attention"), (chunkmem.stack, "hcam_block"),
               (chunkmem.stack, "forward_sequence"),
               (chunkmem.attention, "chunk_relevance")]
    before = [getattr(owner, name) for owner, name in watched]
    tracer = Tracer()
    tracer.install(chunkmem)
    try:
        assert all(getattr(owner, name) is not orig
                   for (owner, name), orig in zip(watched, before))
        model = Model(ModelConfig(kind="hcam", d_model=8, n_heads=2,
                                  n_layers=1, chunk_size=2, item_dim=8,
                                  task="pai"), seed=0)
        e = generate_pai_episode(1, 8, item_dim=8, seed=0)
        chunkmem.tasks.pai_forward(GradTape(), model, e.pairs, e.probe,
                                   e.choices)
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in watched] == before
    names = [span[0] for span in tracer.spans]
    assert names.count("stack.forward") == 1
    for name in ("attention.local", "attention.recall", "attention.relevance"):
        assert name in names
