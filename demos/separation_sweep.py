"""Classify indices with nothing but an order.

The mock pair splits the naturals into N (odd) and M (even), and the
adapted base-group order is built so that the two embedded generators
2n-1 and 2n land on the same side of the identity exactly when n comes
from N.  Sweeping n and asking only order questions therefore recovers
the classification — this is the order-theoretic separation argument in
executable form.
"""

from wreathembed import cli, reductions
from wreathembed.base_groups import mock_pair

cli.main(["demo", "theorem1", "--max-n", "12"])

records = reductions.separation_report(mock_pair(), max_n=12)

print()
sides = {r["n"]: r["side"] for r in records}
in_set = sorted(r["n"] for r in records if r["separator"] == "in")
print("indices the separator accepts:", in_set)
print("ground truth (N = odd):       ", [n for n in sides if n % 2 == 1])
print("violations:", sum(not r["ok"] for r in records))
