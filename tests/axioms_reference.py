"""The scalar axiom oracle, kept as a reference for the bit-matrix one.

This is the loop-per-bit ``check_axioms`` that ``eqprox.proximity`` used
before its table loops became whole-integer operations.  The body is kept
unchanged so that the differential test in ``test_axioms_differential.py``
compares the production oracle with the original, verdict and
counterexample alike.  It is test-only code: nothing under ``src/`` may
import it.
"""

from proximity_reference import _intersectors, _submask_table

from eqprox.errors import ResourceCap
from eqprox.proximity import AXIOM_CHECK_CAP, AxiomReport


def check_axioms_reference(p, cap=AXIOM_CHECK_CAP):
    """Exhaustively check P1-P6 and P5' over every subset pair.

    Counterexamples are the first violations in the fixed subset
    enumeration order, so reports are reproducible.  The check is
    Theta(8**n) in quantifier volume (vectorized over the last quantifier),
    hence the cap.
    """
    carrier = p.carrier
    n = carrier.n
    if n > cap:
        raise ResourceCap(f"axiom check needs carrier size <= {cap}, got {n}")
    N = 1 << n
    full = N - 1
    full_bits = (1 << N) - 1
    rows = p.rows
    subset = carrier.mask_subset

    results = {}

    # P1: intersecting pairs must be near.
    results["P1"] = (True, None)
    for a in range(N):
        viol = _intersectors(a, n) & ~rows[a] & full_bits
        if viol:
            b = (viol & -viol).bit_length() - 1
            results["P1"] = (False, (subset(a), subset(b)))
            break

    # P2: symmetry.  Columns are built by transposing the set bits.
    cols = [0] * N
    for a in range(N):
        row = rows[a]
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << a
            row ^= low
    results["P2"] = (True, None)
    for a in range(N):
        viol = rows[a] & ~cols[a] & full_bits
        if viol:
            b = (viol & -viol).bit_length() - 1
            results["P2"] = (False, (subset(a), subset(b)))
            break

    # P3: the empty set is near nothing.
    if rows[0]:
        b = (rows[0] & -rows[0]).bit_length() - 1
        results["P3"] = (False, (frozenset(), subset(b)))
    else:
        results["P3"] = (True, None)

    # P4: near(A, BuC) iff near(A,B) or near(A,C).  Equivalent to: the row is
    # determined by its singleton bits (all-near if the empty bit is set).
    results["P4"] = (True, None)
    for a in range(N):
        row = rows[a]
        if row & 1:
            if row != full_bits:
                miss = (~row & full_bits)
                b = (miss & -miss).bit_length() - 1
                results["P4"] = (False, (subset(a), subset(b), frozenset()))
                break
            continue
        ok = True
        gs = [0] * N  # OR of singleton bits, built along the mask lattice
        for s in range(1, N):
            low = s & -s
            gs[s] = g = gs[s ^ low] | (row >> low & 1)
            if (row >> s & 1) != g:
                results["P4"] = (False, (subset(a), subset(s ^ low), subset(low)))
                ok = False
                break
        if not ok:
            break

    # Strong-neighborhood masks, shared by P5 and P5'.
    #   sn[a]   = {a1 : A is far from X \ A1}
    #   cutb[b] = {c  : X \ C is far from B}
    sn = [0] * N
    cutb = [0] * N
    for a in range(N):
        m = 0
        row = rows[a]
        for a1 in range(N):
            if not row >> (full ^ a1) & 1:
                m |= 1 << a1
        sn[a] = m
    for b in range(N):
        m = 0
        for c in range(N):
            if not rows[full ^ c] >> b & 1:
                m |= 1 << c
        cutb[b] = m

    # P5: every far pair admits a cut set C with A far C and X\C far B.
    results["P5"] = (True, None)
    done = False
    for a in range(N):
        faror = ~rows[a] & full_bits
        while faror:
            low = faror & -faror
            b = low.bit_length() - 1
            if not (~rows[a] & full_bits) & cutb[b]:
                results["P5"] = (False, (subset(a), subset(b)))
                done = True
                break
            faror ^= low
        if done:
            break

    # P5': every far pair has disjoint strong neighborhoods.  Searched
    # independently of P5 through the submask table.
    table = _submask_table(n)
    reach = [0] * N
    for b in range(N):
        m = sn[b]
        acc = 0
        while m:
            low = m & -m
            acc |= table[full ^ (low.bit_length() - 1)]
            m ^= low
        reach[b] = acc
    results["P5prime"] = (True, None)
    done = False
    for a in range(N):
        faror = ~rows[a] & full_bits
        while faror:
            low = faror & -faror
            b = low.bit_length() - 1
            if not sn[a] & reach[b]:
                results["P5prime"] = (False, (subset(a), subset(b)))
                done = True
                break
            faror ^= low
        if done:
            break

    # P6: distinct points are far.
    results["P6"] = (True, None)
    done = False
    for i in range(n):
        for j in range(n):
            if i != j and rows[1 << i] >> (1 << j) & 1:
                results["P6"] = (False, (subset(1 << i), subset(1 << j)))
                done = True
                break
        if done:
            break

    return AxiomReport(results)
