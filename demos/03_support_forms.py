"""Support-property quadratic forms attached to a pencil of charges.

The line form pairs the pencil's canonical charge with that of its
projection; it vanishes on the whole twisted curve and is positive on
sign-coherent kernel vectors, but only seminegative on the pencil's common
kernel.  Adding a large multiple of it to the (embedded) inductive form of
the projected pencil tightens this to strict negative definiteness: the
support property for every charge spanned by the pencil.
"""

from fractions import Fraction as F

from redstab import (
    CentralCharge,
    Pencil,
    RootTuple,
    deform_form,
    dual_form,
    in_WQ,
    q_line,
    q_tilde,
    reduced_charge,
    verify_support,
)
from redstab.quadform import QuadraticForm

print(__doc__)

surface = Pencil.from_tuples(RootTuple((F(0), F(2))),
                             RootTuple((F(1), F(3))))
Q2 = q_line(surface)
print("surface line form (Gram):")
for row in Q2.gram:
    print("  ", row)
print("this is the polarized discriminant v1^2 - 2 v0 v2")

threefold = Pencil.from_tuples(RootTuple((F(0), F(2), F(4))),
                               RootTuple((F(1), F(3), F(5))))
Qt = q_tilde(threefold)
print("\ninductive form at ambient 3 found with weight alpha =", Qt.meta["alpha"])
rep = verify_support(Qt, threefold)
print("support checks: vanishing =", rep.vanishing_ok,
      "| kernel negative definite =", rep.kernel_negative_ok,
      "| alternating pairings =", rep.pairing_ok)

# the bare line form fails strictness on the common kernel
rep_line = verify_support(q_line(threefold), threefold)
print("bare line form kernel check (expected to fail):",
      rep_line.kernel_negative_ok)

# dual-form membership of a central charge
Z = CentralCharge(reduced_charge(RootTuple((F(1), F(3)))),
                  reduced_charge(RootTuple((F(0), F(2)))))
print("\ndual-form membership of B_(1,3) + i B_(0,2) against the surface"
      " discriminant:", in_WQ(Z, Q2))
print("dual Gram:", dual_form(Q2).gram)

# deforming a support form along a segment of kernels
rho = 4
model = [[F(0)] * rho for _ in range(rho)]
model[0][0] = model[1][1] = F(3)
for k in range(2, rho):
    model[k][k] = F(-1)
h = tuple(F(int(i == 0)) for i in range(rho))
f1 = tuple(F(int(i == 1)) for i in range(rho))
f2 = tuple(F(int(i == 2)) for i in range(rho))
out, report = deform_form(h, f1, f2, QuadraticForm(tuple(map(tuple, model))),
                          F(1, 2), F(3), samples=500, seed=0)
print("\ndeformed form signature:", out.inertia(),
      "| segment certified:", report.lower_certified,
      "| containments hold:", report.ok,
      f"({report.upper_samples} integer cone samples)")
