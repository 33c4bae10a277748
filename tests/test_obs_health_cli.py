"""``python -m repro.obs health`` prints the same report, byte for byte.

The health CLI stands up a sharded fleet of real AGWs and prints per-AGW,
per-shard and fleet scores with exemplar-linked attach p99s; everything
in it is simulated, so its stdout is deterministic.  The golden below was
taken before health scoring moved onto each gateway's owner shard.  Its
AGW names and exemplar trace ids moved, and nothing else, when the fleet
came to be built by ``repro.deploy.build``: the AGWs are ``agw-1`` on,
and they checkpoint, each checkpoint opening a root span that draws a
trace id.
"""

from repro.obs.cli import main

GOLDEN = """\
fleet health @ t=120.0s: 8 AGWs, mean 99.8, min 99.8
convergence lag (publish → all applied): default=5.13s
  no unconverged publishes

per-shard:
  orc-s0   agws=1   mean=  99.8  min=  99.8  worst=agw-6
  orc-s1   agws=1   mean=  99.8  min=  99.8  worst=agw-7
  orc-s2   agws=5   mean=  99.8  min=  99.8  worst=agw-4
  orc-s3   agws=1   mean=  99.8  min=  99.8  worst=agw-5

per-AGW:
  agw-1    score=  99.8  attach=1.00 latency=1.00 cpu=1.00 fresh=0.98 conv=1.00  p99=621.2ms trace=f086f5d7ea90
  agw-2    score=  99.8  attach=1.00 latency=1.00 cpu=1.00 fresh=0.98 conv=1.00  p99=621.2ms trace=e0d1800fda9b
  agw-3    score=  99.8  attach=1.00 latency=1.00 cpu=1.00 fresh=0.98 conv=1.00  p99=621.2ms trace=3c478c6a963b
  agw-4    score=  99.8  attach=1.00 latency=1.00 cpu=1.00 fresh=0.98 conv=1.00  p99=621.2ms trace=5870dcd89971
  agw-5    score=  99.8  attach=1.00 latency=1.00 cpu=1.00 fresh=0.98 conv=1.00  p99=621.2ms trace=f9c0a40333d3
  agw-6    score=  99.8  attach=1.00 latency=1.00 cpu=1.00 fresh=0.98 conv=1.00  p99=621.2ms trace=be74121b38a4
  agw-7    score=  99.8  attach=1.00 latency=1.00 cpu=1.00 fresh=0.98 conv=1.00  p99=621.2ms trace=a8f1de0d7e9c
  agw-8    score=  99.8  attach=1.00 latency=1.00 cpu=1.00 fresh=0.98 conv=1.00  p99=621.2ms trace=176e9535d9c0

exemplar check: 8/8 p99 exemplars resolve to recorded traces
"""


def test_health_cli_stdout_is_pinned(capsys):
    assert main(["health", "--agws", "8", "--shards", "4"]) == 0
    assert capsys.readouterr().out == GOLDEN
