"""One full protocol run, message by message.

Source -> servers: noisy pair delivery. Servers -> Alice: one readout
each per pair. Alice infers the Bell class of every pair, announces an
angle per pair to the first server only (signed by the class, and sent
mod 2 pi), collects his measured bits, and hands the residual qubits off
to the second server. The transcript auditor then re-checks that nobody
said anything forbidden.
"""

import collections

from hyperdistill import BellClass, FidelityVector, audit, run_protocol
from hyperdistill.protocol import SIGNED_ANGLES
from hyperdistill.model import CASES, OUTCOME_PAIRS

fv = FidelityVector(0.7, 0.1, 0.15, 0.05)
run = run_protocol(m=8, fv=fv, seed=2026)

print("=" * 72)
print("Transcript")
print("=" * 72)
for line in run.transcript.to_lines():
    print(" ", line)

print()
print("=" * 72)
print("Alice's bookkeeping")
print("=" * 72)
print("pair  true state  readouts            inferred class  signed angle bit")
for j, (c, reported, phi, angle, a_bit) in enumerate(zip(
    run.case.tolist(), run.reported.tolist(), run.inferred_phi.tolist(),
    run.signed_angle_index.tolist(), run.a_bit.tolist(),
), start=1):
    reported_a, reported_b = OUTCOME_PAIRS[reported]
    readouts = f"({reported_a.value}, {reported_b.value})"
    inferred = BellClass.PHI if phi else BellClass.PSI
    print(
        f"  {j}   {CASES[c][0].value:9s} "
        f"{readouts:19s} {inferred.value:14s} "
        f"{SIGNED_ANGLES[angle]:+.4f}     {a_bit}"
    )

phi = int(run.inferred_phi.sum())
pairs = len(run.case)
print()
print(f"classes: {phi} Phi, {pairs - phi} Psi")
print(f"handoff: {pairs} residual qubits for the second server")

print()
print("=" * 72)
print("Security audit")
print("=" * 72)
verdict = audit(run.transcript)
print("verdict:", "PASS" if verdict.passed else "FAIL")

message_kinds = collections.Counter(
    (m.phase.value, m.sender.value, m.recipient.value)
    for m in run.transcript.messages
)
print("message flow:")
for (phase, sender, recipient), count in sorted(message_kinds.items()):
    print(f"  {phase:17s} {sender:7s} -> {recipient:7s} x{count}")

print()
print("Note what is absent: no Bob1 <-> Bob2 traffic, no Alice -> server")
print("feedback during distribution or distillation, no angles to the")
print("second server, no result bits from it.")
