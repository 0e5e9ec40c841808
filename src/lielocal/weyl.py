"""Finite Weyl groups: exact enumeration, twisted classes, regular elements.

An element is its index w into the enumeration, and the group keeps no
Python object per element.  After enumeration the group is its
multiplication table, in flat columns: the last letter of each element's
least reduced word, whose length is the length of w; per generator s_i, an
``array`` of the indices of w·s_i; and the index of each inverse.  The
permutations of the 2N signed roots (indices 0..N-1 the positive roots, N+k
the negative of root k; 2N <= 240 for every supported type) are ``bytes``,
composed by one ``bytes.translate``; enumeration keeps them for one length
at a time, and a reader that needs one rebuilds it from the word.  The
group answers from its columns alone (Casselman, "Machine calculations in
Weyl groups", Invent. Math. 116, 1994): words, F-conjugacy orbits, twisted
centralizers and Hecke products step by integer lookups in the table.  No
matrix is stored.  A weight-lattice matrix is rebuilt from the word only
for an F-class representative, which settles the eigenspace dimension and
the regularity of its class, and for the one d-regular witness.

Eigenspace work is done over Q, by Galois descent.  For K = Q(zeta_d),
V_d = ker_Q Phi_d(w phi) has V_d ⊗ K equal to the sum of the zeta_d^k-
eigenspaces of w·phi over k prime to d, permuted transitively by Gal(K/Q).
So a rational functional vanishes on the zeta_d-eigenspace E exactly when it
vanishes on V_d, and dim_Q(V_d ∩ U) = phi(d)·dim_K(E ∩ U_K) for a rational
U stable under w·phi.  With U = ker(M_v - 1), v in C_W(w phi) acts on E as
the identity, or as a pseudo-reflection, exactly when that is phi(d)·dim E,
or phi(d)·(dim E - 1).  That needs no matrix of v: v^{-1}·x - x lies in the
root span, which the simple coroots separate, so v fixes x exactly when
<v^{-1}·x, alpha_i^vee> = <x, v·alpha_i^vee> equals <x, alpha_i^vee> for
every simple i, with v·alpha_i^vee the coroot of the signed root v·alpha_i.

The same machinery drives both the crystallographic groups coming from a
:class:`~lielocal.root_datum.RootDatum` and the symmetric group S_n acting on
Z^n (GL mode), via :class:`ReflectionContext`.

The permutation context works without enumerating the group, so the braid
module can handle E_7/E_8 word problems; full enumeration is guarded at 10^6
elements and refuses those types.
"""

from __future__ import annotations

import heapq
import math
from array import array
from functools import cached_property, lru_cache, reduce
from typing import Iterator, NamedTuple

from .cyclotomic import cyclo_rref, euler_phi, phi_d_matrix
from .errors import GuardExceeded, InvariantError, UnsupportedTypeError, check
from .linalg import closure, identity, mat_mul, mat_vec, rank
from .root_datum import RootDatum, parse_label, split_degrees

WEYL_GUARD = 10**6


# ---------------------------------------------------------------------------
# Reflection contexts


class ReflectionContext:
    """A finite reflection action given by generator matrices and the root
    vectors they permute.  Provides permutation arithmetic on signed roots
    without enumerating the group.  A permutation is ``bytes`` of length 2N,
    so at most 256 signed roots are supported; only a reducible
    :func:`~lielocal.root_datum.from_cartan` datum can exceed that."""

    def __init__(self, label: str, gen_matrices, pos_root_vectors,
                 coroot_functionals, phi_matrix, predicted_order: int | None):
        self.label = label
        self.dim = len(gen_matrices[0]) if gen_matrices else len(phi_matrix)
        self.n_gens = len(gen_matrices)
        self.gen_matrices = [tuple(tuple(row) for row in m) for m in gen_matrices]
        self.pos_roots = [tuple(v) for v in pos_root_vectors]
        self.N = len(self.pos_roots)
        if 2 * self.N > 256:
            raise UnsupportedTypeError(
                f"{label} has {2 * self.N} signed roots; permutations hold at most 256")
        # compose() pads p to a full translate table; is_negative maps a
        # signed-root index to 1 exactly when it names a negative root
        self._pad = bytes(range(2 * self.N, 256))
        self._is_negative = bytes(int(x >= self.N) for x in range(256))
        self.coroots = [tuple(c) for c in coroot_functionals]
        self.phi_mat = tuple(tuple(row) for row in phi_matrix)
        self.predicted_order = predicted_order
        self._index = {self._signed_vector(k): k for k in range(2 * self.N)}
        # right_descents reads where w sends the i-th SIMPLE root, so the
        # simple roots must be the first n_gens entries of pos_roots
        check(all(self._index[self.pos_roots[i]] == i for i in range(self.n_gens)),
              "simple roots are not listed first")
        self.gen_perms = [self._perm_of_matrix(m) for m in self.gen_matrices]
        self.gen_tables = [g + self._pad for g in self.gen_perms]  # p.translate: s_i∘p
        self.phi_perm = self._perm_of_matrix(self.phi_mat)
        self.identity_perm = bytes(range(2 * self.N))
        # phi_simple[i] = j where phi(s_i) = s_j
        self.phi_simple = tuple(self.phi_perm[:self.n_gens])
        phi_inv = self.invert(self.phi_perm)
        check(all(j < self.n_gens and self.compose(self.phi_perm, self.compose(g, phi_inv))
                  == self.gen_perms[j] for g, j in zip(self.gen_perms, self.phi_simple)),
              "phi does not map a simple reflection to a simple reflection")

    def _signed_vector(self, idx: int) -> tuple[int, ...]:
        if idx < self.N:
            return self.pos_roots[idx]
        return tuple(-x for x in self.pos_roots[idx - self.N])

    def _perm_of_matrix(self, m) -> bytes:
        out = []
        for k in range(2 * self.N):
            image = tuple(mat_vec(m, self._signed_vector(k)))
            if image not in self._index:
                raise InvariantError("matrix does not permute the roots")
            out.append(self._index[image])
        return bytes(out)

    # permutation helpers -----------------------------------------------------

    def compose(self, p: bytes, q: bytes) -> bytes:
        """Permutation of the map p∘q (apply q first)."""
        return q.translate(p + self._pad)

    def invert(self, p: bytes) -> bytes:
        return bytes.maketrans(p, self.identity_perm)[:len(p)]  # the table sends p[i] to i

    def length(self, p: bytes) -> int:
        """Number of positive roots sent negative."""
        return p[:self.N].translate(self._is_negative).count(1)

    def right_descents(self, p: bytes) -> set[int]:
        """{i : l(w s_i) < l(w)} = simple roots sent negative by w."""
        return {i for i in range(self.n_gens) if p[i] >= self.N}

    def word_from_perm(self, p: bytes) -> tuple[int, ...]:
        """A reduced word for the element with permutation p, extracted by
        descent walking (always succeeds for genuine group elements)."""
        word = []
        cur = p
        while True:
            descent = next((i for i in range(self.n_gens) if cur[i] >= self.N), None)
            if descent is None:
                break
            cur = self.compose(cur, self.gen_perms[descent])
            word.append(descent)
        if cur != self.identity_perm:
            raise InvariantError("descent walk did not terminate at the identity")
        return tuple(reversed(word))

    def reflection_perm_of_root(self, root_idx: int) -> bytes:
        """Signed-root permutation of s_beta for a positive root index."""
        beta, func = self.pos_roots[root_idx], self.coroots[root_idx]
        return self._perm_of_matrix([[(r == c) - beta[r] * func[c] for c in range(self.dim)]
                                     for r in range(self.dim)])

    def pairing(self, k: int, j: int) -> int:
        """<beta_k, alpha_j^vee> for positive root indices k and j."""
        return sum(a * b for a, b in zip(self.pos_roots[k], self.coroots[j]))


def context_from_datum(datum: RootDatum) -> ReflectionContext:
    roots_w = [datum.root_weight_coords(r) for r in datum.pos_roots]
    order = [i for i, _ in sorted(enumerate(datum.pos_roots),
                                  key=lambda t: (sum(t[1]), tuple(-x for x in t[1])))]
    roots_sorted = [roots_w[i] for i in order]
    coroots_sorted = [datum.pos_coroots[i] for i in order]
    return ReflectionContext(
        label=datum.label,
        gen_matrices=[datum.reflection_matrix(i) for i in range(datum.rank)],
        pos_root_vectors=roots_sorted,
        coroot_functionals=coroots_sorted,
        phi_matrix=datum.phi_matrix(),
        predicted_order=predicted_weyl_order(datum.label),
    )


def gl_context(n: int) -> ReflectionContext:
    """S_n acting on Z^n with roots e_i - e_j (GL mode)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    simples = []
    others = []
    for i in range(n):
        for j in range(i + 1, n):
            v = tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))
            (simples if j == i + 1 else others).append(v)
    simples.sort(key=lambda v: v.index(1))
    others.sort(key=lambda v: (v.index(1), v))
    roots = simples + others
    gens = []
    for k in range(n - 1):
        m = identity(n)
        m[k][k] = m[k + 1][k + 1] = 0
        m[k][k + 1] = m[k + 1][k] = 1
        gens.append(m)
    return ReflectionContext(
        label=f"GL{n}",
        gen_matrices=gens,
        pos_root_vectors=roots,
        coroot_functionals=roots,
        phi_matrix=identity(n),
        predicted_order=math.factorial(n),
    )


def predicted_weyl_order(label: str) -> int | None:
    """|W| = prod of the reflection degrees, or None for a label that names
    no supported type (such as from_cartan's "A1xA1")."""
    try:
        _, family, n = parse_label(label)
    except UnsupportedTypeError:
        return None
    return math.prod(split_degrees(family, n))


# ---------------------------------------------------------------------------
# Enumerated groups


class TwistedClass(NamedTuple):
    """An F-conjugacy class: the orbit of w under w -> v^{-1} w phi(v), as an
    ``array('i')`` of sorted indices, with the least reduced word of the first."""

    members: array
    word: tuple[int, ...]
    twisted: bool

    @property
    def representative(self) -> int:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "representative_word": [i + 1 for i in self.word],
            "representative_length": len(self.word),
            "size": self.size,
            "twisted": self.twisted,
        }


class RegularReport(NamedTuple):
    """Witness data for a d-regular twisted element, made only once its
    centralizer is checked to be a reflection group on the eigenspace."""

    d: int
    witness: int
    witness_word: tuple[int, ...]
    eigenspace_dim: int
    centralizer_order: int

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "zeta_order": self.d,
            "witness_word": [i + 1 for i in self.witness_word],
            "witness_length": len(self.witness_word),
            "eigenspace_dim": self.eigenspace_dim,
            "centralizer_order": self.centralizer_order,
            "centralizer_is_reflection_group": True,
        }


class WeylGroup:
    """Fully enumerated reflection group over a :class:`ReflectionContext`.

    An element is an index w, and ``elements`` is ``range(|W|)``.  The group
    is its multiplication table: ``last``, the last letter of each element's
    lexicographically least reduced word (:meth:`word`); ``right``, one
    ``array('i')`` per generator with ``right[i][w]`` the index of w·s_i, so
    ``right[i][0]`` is s_i; and ``inverses``.  :meth:`perm` composes the
    generators along the word.  BFS from the identity, appending generators
    in ascending order, lists the elements in (length, word) order, which
    downstream code uses as the canonical tie-break.  Index order is
    therefore length order, and w·s_i is an ascent exactly when
    ``right[i][w] > w``.

    The BFS walks one length at a time.  An ascent w·s_i of an element of
    length k has length k + 1, so it can only equal an element of the next
    length, and permutations, with their dict to indices, are kept for that
    length alone."""

    def __init__(self, ctx: ReflectionContext):
        if ctx.predicted_order is not None and ctx.predicted_order > WEYL_GUARD:
            raise GuardExceeded(f"Weyl group of {ctx.label} has order "
                                f"{ctx.predicted_order} > guard {WEYL_GUARD}")
        self.ctx = ctx
        N, length, pad = ctx.N, ctx.length, ctx._pad
        # grown by doubling past the classical order, then cut to |W|
        size = ctx.predicted_order or 1
        right = [array("i", [-1]) * size for _ in range(ctx.n_gens)]
        gens = list(zip(range(ctx.n_gens), ctx.gen_perms, right))
        last = bytearray(1)  # the identity's word is empty: last[0] is unused
        start, depth, level = 0, 0, (ctx.identity_perm,)
        while level:
            check(all(length(p) == depth for p in level), "stored word is not reduced")
            upper = {}  # permutation -> index, for length depth + 1 only
            for w, perm in enumerate(level, start):
                table = perm + pad  # w·s_i is gen.translate(table)
                for i, gen, col in gens:
                    if perm[i] < N:  # l(w s_i) = l(w) + 1
                        p = gen.translate(table)
                        ws = upper.get(p)
                        if ws is None:
                            ws = len(last)
                            if ws >= WEYL_GUARD:
                                raise GuardExceeded(
                                    f"enumeration of {ctx.label} exceeded guard {WEYL_GUARD}")
                            if ws == size:
                                for c in right:
                                    c.extend(array("i", [-1]) * size)
                                size *= 2
                            upper[p] = ws
                            last.append(i)
                        # s_i is an involution: (w s_i) s_i = w
                        col[w] = ws
                        col[ws] = w
            start += len(level)
            depth += 1
            level = upper
        count = len(last)
        if ctx.predicted_order is not None:
            check(count == ctx.predicted_order,
                  f"enumerated {count} elements, classical order {ctx.predicted_order}")
        for col in right:
            del col[count:]
        # every descent w s_i < w was set as the ascent of the shorter w s_i
        check(all(-1 not in col for col in right), "right multiplication table has holes")
        self.elements = range(count)
        self.last = last
        self.right = right
        self._dims: dict[int, array] = {}  # d -> phi_d_dimensions(d)

    def __len__(self) -> int:
        return len(self.elements)

    def perm(self, w: int) -> bytes:
        """The signed-root permutation of w: its word's generators composed."""
        p, tables = self.ctx.identity_perm, self.ctx.gen_tables
        for i in reversed(self.word(w)):
            p = p.translate(tables[i])
        return p

    def word(self, w: int) -> tuple[int, ...]:
        """The lexicographically least reduced word of w, read back through
        its BFS parents w·s_i, i = ``last[w]``."""
        right, last = self.right, self.last
        letters = []
        while w:
            i = last[w]
            letters.append(i)
            w = right[i][w]
        return tuple(reversed(letters))

    # F-conjugacy ---------------------------------------------------------------

    @cached_property
    def inverses(self) -> array:
        """``inverses[w]`` is the index of w^{-1}.

        Write w = s_j·q with j the first letter of the word of w, so that
        w^{-1} = q^{-1}·s_j, one lookup in the right multiplication table once
        q^{-1} is known; q is shorter than w, so it comes first in index
        order.  q itself follows from the BFS parent p = w·s_i: if p = s_j·t,
        then q = t·s_i."""
        right, last = self.right, self.last
        n = len(self)
        inv = array("i", [0]) * n
        tail = array("i", [0]) * n  # tail[w] = s_j·w, j = first[w]
        first = bytearray(n)
        for w in range(1, n):
            i = last[w]
            col = right[i]
            p = col[w]
            if p:
                j = first[w] = first[p]
                q = tail[w] = col[tail[p]]
            else:  # w = s_i
                j = first[w] = i
                q = 0
            inv[w] = right[j][inv[q]]
        check(all(inv[v] == w for w, v in enumerate(inv)), "inversion is not an involution")
        return inv

    @cached_property
    def _partition(self) -> tuple[list[TwistedClass], array]:
        """The F-conjugacy classes, and the class index of every element:
        the orbits of the F-conjugation steps x -> s_i·x·phi(s_i).
        phi(s_i) = s_{phi_simple[i]} (checked by the context), so the right
        factor is one lookup in the right multiplication table, and the left
        one is an inverse, a lookup and an inverse again."""
        twisted = self.ctx.phi_perm != self.ctx.identity_perm
        inv = self.inverses
        steps = [(self.right[j], col) for col, j in zip(self.right, self.ctx.phi_simple)]
        owner = array("i", [-1]) * len(self)
        classes = []
        for start in range(len(self)):
            if owner[start] >= 0:
                continue
            k = len(classes)
            owner[start] = k
            orbit = [start]
            for w in orbit:  # grows while it is walked
                for left, col in steps:
                    v = inv[col[inv[left[w]]]]
                    if owner[v] != k:
                        if owner[v] >= 0:
                            raise InvariantError("classes do not partition W")
                        owner[v] = k
                        orbit.append(v)
            orbit.sort()
            classes.append(TwistedClass(members=array("i", orbit), word=self.word(orbit[0]),
                                        twisted=twisted))
        check(sum(c.size for c in classes) == len(self), "classes do not partition W")
        return classes, owner

    def f_conjugacy_classes(self) -> list[TwistedClass]:
        """Orbits of w -> v^{-1} w phi(v), with members and classes in
        (length, word) order, which is index order."""
        return self._partition[0]

    def centralizer_of_twisted(self, w: int) -> list[int]:
        """C_W(w phi) = {v : v^{-1} w phi(v) = w}, checked against the
        orbit-stabilizer count |C_W(w phi)|·|F-class of w| = |W|.
        For v = p·s_i, with i = ``last[v]`` and p = ``right[i][v]`` its BFS
        parent, v^{-1} w phi(v) = s_i·(p^{-1} w phi(p))·phi(s_i) is one
        F-conjugation step (:meth:`_partition`) from the parent's, so one
        pass in index order conjugates w by every element."""
        inv, last, right = self.inverses, self.last, self.right
        lefts = [right[j] for j in self.ctx.phi_simple]
        conjugate = array("i", [w]) * len(self)
        for v in self.elements[1:]:
            i = last[v]
            col = right[i]
            conjugate[v] = inv[col[inv[lefts[i][conjugate[col[v]]]]]]
        centralizer = [v for v, x in enumerate(conjugate) if x == w]
        classes, owner = self._partition
        check(len(centralizer) * classes[owner[w]].size == len(self),
              "centralizer order times F-class size is not |W|")
        return centralizer

    # eigenspace machinery -------------------------------------------------------

    def _matrix(self, w: int):
        """Weight-lattice matrix of w: the generator matrices along its word."""
        return reduce(mat_mul, (self.ctx.gen_matrices[i] for i in self.word(w)),
                      identity(self.ctx.dim))

    def _twisted_matrix(self, w: int):
        return mat_mul(self._matrix(w), self.ctx.phi_mat)

    def phi_d_dimensions(self, d: int) -> array:
        """dim over Q(zeta_d) of the zeta_d-eigenspace of w·phi, for every w
        (computed as dim_Q ker Phi_d(w phi) / phi(d)), one signed byte per
        element.  The dimension is an F-class function, since
        v^{-1} w phi(v)·phi = v^{-1}(w phi)v, so one rank is taken per class
        of :meth:`f_conjugacy_classes` and copied to its members."""
        n = self.ctx.dim
        # a zeta_d-eigenvalue of an n x n rational matrix needs phi(d) <= n,
        # and phi(d) >= sqrt(d/2), so past 2n^2 all are 0, and not cached
        if d > 2 * n * n:
            return array("b", [0]) * len(self)
        if d not in self._dims:
            deg = euler_phi(d)
            dims = self._dims[d] = array("b", [0]) * len(self)
            for cls in self.f_conjugacy_classes():
                dim_q = n - rank(phi_d_matrix(self._twisted_matrix(cls.representative), d))
                check(dim_q % deg == 0, "Q-kernel dimension not divisible by phi(d)")
                for w in cls.members:
                    dims[w] = dim_q // deg
        return self._dims[d]

    def max_phi_d_eigenspace(self, d: int) -> tuple[int, int]:
        """(witness, dimension) for the witness maximizing the zeta_d-eigenspace
        dimension; ties broken by least length then lexicographically least
        reduced word, which is index order."""
        dims = self.phi_d_dimensions(d)
        best = max(dims)
        return dims.index(best), best

    def eigenspace_basis(self, w: int, d: int) -> list[list[int]]:
        """Integer basis of V_d = ker_Q Phi_d(w phi), which stands in for the
        zeta_d-eigenspace (module docstring).  Its size is checked
        against :meth:`phi_d_dimensions`, which takes the rank another way,
        and its rows are checked independent."""
        basis, pivots = cyclo_rref(self._twisted_matrix(w), d)
        check(len(basis) == len(pivots) == euler_phi(d) * self.phi_d_dimensions(d)[w],
              "cyclotomic kernel dim mismatch")
        return basis

    def is_regular_eigenspace(self, basis) -> bool:
        """True when the eigenspace is nonzero and in no root hyperplane."""
        return bool(basis) and not any(vanishes_on(coroot, basis)
                                       for coroot in self.ctx.coroots)

    def regular_witnesses(self, d: int) -> Iterator[int]:
        """The d-regular elements in index order: a nonzero zeta_d-eigenspace
        of the largest dimension (as every regular one has, by Springer) in no
        root hyperplane.  v^{-1} w phi(v)·phi has eigenspace v^{-1}E, and v^{-1}
        permutes the hyperplanes, so one basis per F-class is checked."""
        dims = self.phi_d_dimensions(d)
        best = max(dims)
        return heapq.merge(*(
            cls.members for cls in self.f_conjugacy_classes()
            if best and dims[cls.representative] == best
            and self.is_regular_eigenspace(self.eigenspace_basis(cls.representative, d))))

    def regular_elements(self, d: int) -> RegularReport | None:
        """The first of :meth:`regular_witnesses`, once its own eigenspace is
        checked regular and its centralizer has passed
        :meth:`_centralizer_reflection_check`; None if there is none."""
        for w in self.regular_witnesses(d):
            basis = self.eigenspace_basis(w, d)
            check(self.is_regular_eigenspace(basis), "the witness's eigenspace is not regular")
            centralizer = self.centralizer_of_twisted(w)
            self._centralizer_reflection_check(w, d, basis, centralizer)
            return RegularReport(d=d, witness=w, witness_word=self.word(w),
                                 eigenspace_dim=self.phi_d_dimensions(d)[w],
                                 centralizer_order=len(centralizer))
        return None

    def _eigenspace_action(self, w, d, basis, perms) -> tuple[list[int], list[int]]:
        """(identity, pseudo-reflections) on the eigenspace, as positions in
        ``perms``, the signed-root permutations p of elements of C_W(w phi).
        Each p must commute with that of w·phi (W acts faithfully on the
        roots, so this is commuting as matrices), and its fixed space in V_d
        is the kernel of the rows pairing[p[i]] - pairing[i], i simple, with
        pairing[k] the coroot of signed root k on ``basis`` (module docstring)."""
        ctx, deg, full = self.ctx, euler_phi(d), len(basis)
        compose, sigma = ctx.compose, ctx.compose(self.perm(w), ctx.phi_perm)
        pairing = [mat_vec(basis, coroot) for coroot in ctx.coroots]
        pairing += [[-x for x in row] for row in pairing]
        moved = [[[x - y for x, y in zip(row, pairing[i])] for row in pairing]
                 for i in range(ctx.n_gens)]
        trivial, reflections = [], []
        for k, p in enumerate(perms):
            check(compose(p, sigma) == compose(sigma, p),
                  "centralizer does not preserve the eigenspace")
            fixed = full - rank([row[p[i]] for i, row in enumerate(moved)])
            check(fixed % deg == 0, "fixed space in V_d has dimension not divisible by phi(d)")
            if fixed == full:
                trivial.append(k)
            elif fixed == full - deg:
                reflections.append(k)
        return trivial, reflections

    def _centralizer_reflection_check(self, w, d, basis, centralizer) -> None:
        """Check that C_W(w phi) is generated by the elements acting on the
        eigenspace as pseudo-reflections.  The action is faithful on a
        regular eigenspace (Springer), which is checked, so the subgroup the
        pseudo-reflections generate is compared with the centralizer as a
        set of permutations, each element's built once from its word."""
        ctx, perms = self.ctx, [self.perm(v) for v in centralizer]
        trivial, reflections = self._eigenspace_action(w, d, basis, perms)
        check(len(trivial) == 1, "centralizer does not act faithfully on the eigenspace")
        generated = closure((ctx.identity_perm,), [perms[k] for k in reflections], ctx.compose)
        check(generated == set(perms), "centralizer is not generated by its pseudo-reflections")


def vanishes_on(coroot, basis) -> bool:
    """True when span(basis) lies in the hyperplane of the functional ``coroot``."""
    return not any(mat_vec(basis, coroot))


# ---------------------------------------------------------------------------
# public helpers


# The caches are keyed without WEYL_GUARD: a group cached before the guard
# was lowered is still returned, since a guard bounds work and a hit does none.
@lru_cache(maxsize=32)
def _group_of_label(label: str) -> WeylGroup:
    from .root_datum import cached_datum
    return WeylGroup(context_from_datum(cached_datum(label)))


def generate_weyl(datum: RootDatum) -> WeylGroup:
    """Enumerate the Weyl group of a root datum (guarded by WEYL_GUARD)."""
    if datum.label and predicted_weyl_order(datum.label) is not None:
        return _group_of_label(datum.label)
    return WeylGroup(context_from_datum(datum))


@lru_cache(maxsize=16)
def gl_weyl(n: int) -> WeylGroup:
    """S_n with its permutation reflection action on Z^n."""
    return WeylGroup(gl_context(n))
