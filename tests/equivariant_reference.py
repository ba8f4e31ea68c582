"""The scalar group-action scans, kept as references for the bitset ones.

These are the loop-per-bit ``is_g_invariant``, ``check_action_continuity``
and equinormal pair scan that ``eqprox.equivariant`` and ``eqprox.gaction``
used before their scans became whole-row integer operations.  The bodies
are kept unchanged, so that ``test_equivariant_differential.py`` compares
the production scans with the originals, verdict and witness alike.  This
is test-only code: nothing under ``src/`` may import it.
"""

from eqprox.errors import CarrierMismatch


def is_g_invariant_reference(p, a):
    """Whether near(A, B) implies near(gA, gB) for every group element."""
    carrier = a.carrier
    n = carrier.n
    N = 1 << n
    rows = p.rows
    for g in range(a.group.order):
        perm = a.act[g]
        maskmap = [0] * N
        for m in range(1, N):
            low = m & -m
            maskmap[m] = maskmap[m ^ low] | (1 << perm[low.bit_length() - 1])
        for am in range(N):
            row = rows[am]
            prow = rows[maskmap[am]]
            bm = row
            while bm:
                low = bm & -bm
                b = low.bit_length() - 1
                if not prow >> maskmap[b] & 1:
                    return False, (a.group.names[g], carrier.mask_subset(am),
                                   carrier.mask_subset(b))
                bm ^= low
    return True, None


def check_action_continuity_reference(a, u):
    """Joint continuity of the action at every (g0, x0), at basis level.

    True iff for all g0, x0 and basis eps there are a chain level V and a
    basis delta with (g0 V) . delta(x0) inside eps(g0 x0).  Returns the
    first violating (g0, x0, eps index) otherwise.
    """
    if u.carrier != a.carrier:
        raise CarrierMismatch("uniformity is not over the action's carrier")
    group = a.group
    n = a.carrier.n
    levels = a.ne.levels
    for g0 in range(group.order):
        p0 = a.act[g0]
        for x0 in range(n):
            for k, eps in enumerate(u.basis):
                target = eps.image_masks[p0[x0]]
                ok = False
                for li in range(len(levels)):
                    v0 = frozenset(group.mul[g0][v] for v in levels[li])
                    for delta in u.basis:
                        moved = a.set_translate_mask(v0, delta.image_masks[x0])
                        if moved | target == target:
                            ok = True
                            break
                    if ok:
                        break
                if not ok:
                    return False, (group.names[g0], a.carrier.elements[x0], k)
    return True, None


def equinormal_separation_reference(a):
    """The pair-by-pair separation scan of the old ``check_equinormal``."""
    n = a.carrier.n
    N = 1 << n
    separation_ok = True
    for am in range(N):
        for bm in range(N):
            if not _pi_disjoint(a, am, bm):
                continue
            if _find_pi_disjoint_neighborhoods(a, am, bm) is None:
                separation_ok = False
                break
        if not separation_ok:
            break
    return separation_ok


def _pi_disjoint(a, am, bm):
    for li in range(len(a.ne.levels)):
        if not a.translate_mask(li, am) & a.translate_mask(li, bm):
            return True
    return False


def _find_pi_disjoint_neighborhoods(a, am, bm):
    """Open neighborhoods of the two sets whose translates are disjoint at
    some level.  On a discrete carrier every superset is an open
    neighborhood, and the sets themselves are the smallest candidates."""
    if _pi_disjoint(a, am, bm):
        return am, bm
    return None
