"""Branch decomposition of trees for the recursive labeling strategies.

A branch B of a tree T is a subtree sharing exactly one vertex v with the
complementary subtree T'.  ``find_branch`` locates a branch whose interior
S = B - v is even-sized and matches one of seven shapes:

  1  pendant 4-vertex path tail (S is a P4 hanging off v)
  2  two leaves on a shared center v               (S: 2 vertices)
  3  two 2-paths on a shared center v              (S: 4)
  4  center u with a 2-path arm and a leaf; v is u's stem neighbor (S: u + arms, 4)
  5  a leaf and a 3-path arm on a shared center v  (S: 4)
  6  two 3-paths on a shared center v              (S: 6)
  7  center u with a 2-path arm and a 3-path arm; v is u's stem neighbor (S: 6)

The decomposition vertex u is a branch vertex (degree >= 3) with at most
one branching direction, its arms are the components of T - u without any
further branching, and the shape is selected by an elimination order:
a long arm first (case 1), then repeated arm sizes (2, 3, 6), then the
{1,3} pair (case 5), then the leftovers {1,2} and {2,3} (cases 4, 7).
Every tree with a branch vertex matches exactly one shape.

Vertex sets are bitmasks over the host graph (bit i is vertex i):
``find_branch_in`` takes the subtree as a mask, and a decomposition reports
the interior S and the remainder T' as masks.  Flood fills and arm orders
come from ``graphs.component`` and ``graphs.path_walk``.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, component, iter_bits, path_walk, vertex_mask
from .trees import NonTreeError


class BranchDecomposition(NamedTuple):
    case_id: int
    branch_mask: int  # S = B minus v
    remainder_mask: int  # T', includes v
    roles: dict[str, int]  # figure names to vertex ids; "v" is shared by B and T'


def _check_subtree(g: Graph, mask: int) -> None:
    if not mask:
        raise NonTreeError("empty vertex set")
    edges = sum((g.adj[v] & mask).bit_count() for v in iter_bits(mask)) // 2
    if edges != mask.bit_count() - 1:
        raise NonTreeError("vertex set does not induce a tree")
    if component(g, mask, (mask & -mask).bit_length() - 1) != mask:
        raise NonTreeError("vertex set does not induce a connected subgraph")


def arm_components(g: Graph, mask: int, u: int) -> tuple[tuple[int, ...], ...]:
    """Arms around u: branch-free components of the subtree ``mask`` minus u.

    Each arm is reported from the u-adjacent vertex outward, and the arms
    are sorted.  Components containing another branch vertex (the stem
    direction) are left out: they are exactly the ones that are not a path
    starting next to u.
    """
    rest = mask & ~(1 << u)
    arms = []
    for start in iter_bits(g.adj[u] & rest):
        arm = path_walk(g, component(g, rest, start), start)
        if arm is not None:
            arms.append(arm)
    arms.sort()
    return tuple(arms)


def _pick_center(g: Graph, mask: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lowest-index branch vertex with at most one branching direction, and its arms."""
    for u in iter_bits(mask):
        degree = (g.adj[u] & mask).bit_count()
        if degree >= 3:
            arms = arm_components(g, mask, u)
            if degree - len(arms) <= 1:
                return u, arms
    # a tree with a branch vertex always has one whose other branch
    # vertices all lie in one direction, so only branch-free trees get here
    raise NonTreeError("tree has no vertex of degree 3 or more")


def find_branch_in(g: Graph, mask: int) -> BranchDecomposition:
    """Decompose the subtree induced by the vertex bitmask ``mask``; see module docstring."""
    _check_subtree(g, mask)
    u, arms = _pick_center(g, mask)

    by_size: dict[int, list[tuple[int, ...]]] = {}
    for arm in arms:
        by_size.setdefault(len(arm), []).append(arm)

    def stem_neighbor() -> int:
        stem = g.adj[u] & mask & ~vertex_mask(arm[0] for arm in arms)
        if stem.bit_count() != 1:  # pragma: no cover - ruled out by elimination
            raise NonTreeError("expected exactly one stem direction")
        return stem.bit_length() - 1

    def build(case_id: int, roles: dict[str, int]) -> BranchDecomposition:
        s = vertex_mask(v for name, v in roles.items() if name != "v")
        return BranchDecomposition(
            case_id=case_id,
            branch_mask=s,
            remainder_mask=mask & ~s,
            roles=roles,
        )

    long_arms = [arm for arm in arms if len(arm) >= 4]
    if long_arms:
        arm = min(long_arms)
        tail = arm[-4:]
        v = arm[-5] if len(arm) >= 5 else u
        roles = {"v": v, "v1": tail[0], "v2": tail[1], "v3": tail[2], "v4": tail[3]}
        return build(1, roles)
    if len(by_size.get(1, [])) >= 2:
        first, second = sorted(by_size[1])[:2]
        roles = {"v": u, "v1": first[0], "v2": second[0]}
        return build(2, roles)
    if len(by_size.get(2, [])) >= 2:
        first, second = sorted(by_size[2])[:2]
        roles = {"v": u, "v1": first[1], "v2": first[0], "v3": second[0], "v4": second[1]}
        return build(3, roles)
    if len(by_size.get(3, [])) >= 2:
        first, second = sorted(by_size[3])[:2]
        roles = {
            "v": u,
            "v1": first[0], "v2": first[1], "v3": first[2],
            "v4": second[0], "v5": second[1], "v6": second[2],
        }
        return build(6, roles)
    if by_size.get(1) and by_size.get(3):
        leaf = by_size[1][0]
        arm3 = by_size[3][0]
        roles = {"v": u, "v1": leaf[0], "v2": arm3[0], "v3": arm3[1], "v4": arm3[2]}
        return build(5, roles)
    if by_size.get(1) and by_size.get(2):
        leaf = by_size[1][0]
        arm2 = by_size[2][0]
        v = stem_neighbor()
        roles = {"v": v, "v1": u, "v2": arm2[0], "v3": arm2[1], "v4": leaf[0]}
        return build(4, roles)
    if by_size.get(2) and by_size.get(3):
        arm2 = by_size[2][0]
        arm3 = by_size[3][0]
        v = stem_neighbor()
        roles = {
            "v": v,
            "v1": u, "v2": arm2[0], "v3": arm2[1],
            "v4": arm3[0], "v5": arm3[1], "v6": arm3[2],
        }
        return build(7, roles)
    raise NonTreeError(  # pragma: no cover - the elimination order is total
        f"no case matches arms of orders {tuple(len(a) for a in arms)} at vertex {u}"
    )


def find_branch(t: Graph) -> BranchDecomposition:
    """Branch decomposition of a whole tree (which must not be a path)."""
    if not t.is_tree():
        raise NonTreeError("input is not a tree")
    if t.is_path():
        raise NonTreeError("paths have no branch decomposition; play them directly")
    return find_branch_in(t, t.full_mask)
