"""
Measure how many attention scores a query pays under the two-stage read
versus attending to every stored event, as the memory grows.

The two-stage read scores all N chunk summaries plus the k*C rows inside
the selected chunks, so its per-query cost is N + k*C. A flat read over
the same storage pays N*C. The counts below come from instrumented runs,
not from the formula, and the closed form is checked against them. The
two-stage read also touches only the rows of the chunks it selected, so
its wall time (median ms, after untimed warm-up calls) stays nearly flat
as N grows while the flat read's grows with N*C.

Run with  python3 demos/attention_cost.py
"""
from chunkmem.benchmark import dense_score_count, format_report, hcam_score_count, run_bench

CHUNK = 8
TOP_K = 2

print(f"chunk size {CHUNK}, top-k {TOP_K}, one query\n")
print(f"{'chunks':>7} {'stored':>7} {'two-stage':>10} {'flat':>7} {'ratio':>7}"
      f" {'two-stage ms':>13} {'flat ms':>8}")
for n in (8, 16, 32, 64, 128, 256, 1024):
    r = run_bench(n_chunks=n, chunk_size=CHUNK, top_k=TOP_K,
                  d_model=32, n_heads=4, trials=5)
    assert r.hcam_scores == hcam_score_count(n, CHUNK, TOP_K)
    assert r.dense_scores == dense_score_count(n, CHUNK)
    print(f"{n:>7} {n * CHUNK:>7} {r.hcam_scores:>10} {r.dense_scores:>7} "
          f"{r.dense_scores / r.hcam_scores:>6.1f}x {r.hcam_ms:>13.3f} "
          f"{r.dense_ms:>8.3f}")

print("""
Growing the memory by one chunk costs the two-stage read one extra
summary score; the flat read pays the whole chunk. The ratio approaches
the chunk size C as N grows.
""".strip())

# The standard report for the headline configuration, including the
# parameter-count comparison against a same-width dense baseline.
print()
print(format_report(run_bench(n_chunks=32, chunk_size=8, top_k=2,
                              d_model=64, n_heads=4, trials=21)))
