"""Hamiltonians assembled from few-site terms.

Models are sums of hermitian terms on small site subsets of a qudit chain,
with a numerically certified pairwise-commutation flag. Builders shift the
assembled hamiltonian so the ground energy sits at 0; the stabilizer builder
snaps the shift to the integer spectrum so the ground energy is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .operators import (
    HermOp,
    _add_local,
    _exact_herm,
    _herm_eigvalsh,
    _hermitian,
    _max_abs,
    embed,
    haar_unitary,
    operator_norm,
    total_dim,
)

# Two terms count as commuting when ||[A, B]|| stays below this times
# ||A|| ||B||, measured on the union of their supports.
COMMUTING_REL_TOL = 1e-9

# Desk-scale cap on the total Hilbert space dimension.
MAX_TOTAL_DIM = 4096

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
}


@dataclass(frozen=True)
class QuditSystem:
    """A chain of finite-dimensional sites, MAX_TOTAL_DIM states at most.

    The product of the dims stops once it passes the cap, so a chain of any
    length is refused without forming its full product.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 2 for d in self.dims):
            raise ValueError(f"site dimensions must all be >= 2, got {self.dims}")
        total = 1
        for d in self.dims:
            total *= d
            if total > MAX_TOTAL_DIM:
                raise ValueError(f"the total dimension of {len(self.dims)} sites "
                                 f"exceeds the cap {MAX_TOTAL_DIM}")

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return total_dim(self.dims)


@dataclass(frozen=True, eq=False)
class LocalModel:
    """Sum of hermitian terms on small site subsets.

    ``terms`` maps tuples of distinct sites to matrices given in the listed
    site order. ``commutation_defect`` is the worst relative commutator
    norm over pairs of terms on the union of their supports, inf when it
    was never measured; ``commuting`` certifies it within
    COMMUTING_REL_TOL. When every term is exactly diagonal, a builder's
    model keeps ``diagonal``, the D reals of its shifted hamiltonian;
    otherwise ``diagonal`` is None. A model holds no D x D array.
    """

    system: QuditSystem
    terms: list[tuple[tuple[int, ...], np.ndarray]]
    commutation_defect: float = np.inf
    energy_offset: float = 0.0
    diagonal: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_sites(self) -> int:
        return self.system.n_sites

    @property
    def max_locality(self) -> int:
        return max((len(s) for s, _ in self.terms), default=0)

    @property
    def commuting(self) -> bool:
        return self.commutation_defect <= COMMUTING_REL_TOL

    def hamiltonian(self) -> HermOp:
        """Assembled hamiltonian with the ground energy shifted to 0.

        Each call assembles the sum of the terms, in term order, with the
        same offset, so every call gives the same bytes; a caller that
        needs H twice holds the one it was given.
        """
        return _shifted(_sum_terms(self.terms, self.system.dims),
                        self.energy_offset, self.system.dims)


def _sum_terms(terms, dims) -> np.ndarray:
    """Sum of the terms, each extended by identity, as one D x D complex array.

    Each term is added in place, in term order, by operators._add_local,
    which writes only the entries the term reaches; no term is embedded as
    its own D x D matrix. Each term must be hermitian entry by entry (the
    gate with no tolerance, at the term's size): entry (j, i) then takes the
    conjugate of each addend of entry (i, j), in the same order, and IEEE
    addition commutes with conjugation, so the sum is exactly hermitian too.
    """
    d = total_dim(dims)
    h = np.zeros((d, d), dtype=complex)
    for sites, m in terms:
        _add_local(h, m, sites, dims)
        _hermitian(m, 0.0, f"term on {tuple(sites)} is not hermitian")
    return h


def _diag_energy(dims, pieces) -> np.ndarray:
    """Sum of local diagonals, each broadcast over the other sites, as a
    flat vector of D reals.

    Each piece is (sites, d), d the diagonal of a term given in the listed
    site order (indexed [label of sites[0], label of sites[1], ...]); the
    pieces are added to zeros in order.
    """
    e = np.zeros(dims)
    for sites, d in pieces:
        d = np.reshape(d, [dims[s] for s in sites]).transpose(np.argsort(sites))
        e += d.reshape([dims[s] if s in sites else 1 for s in range(len(dims))])
    return e.reshape(-1)


def _is_diagonal(m: np.ndarray) -> bool:
    """True when every nonzero entry of the square ``m`` is on its diagonal."""
    return np.count_nonzero(m) == np.count_nonzero(m.diagonal())


def _summed_diagonal(terms, dims):
    """The diagonal of _sum_terms(terms, dims) as D reals, or None as soon as
    a term has a nonzero entry off its diagonal.

    Each term passes _sum_terms' exact gate, and _diag_energy adds their
    diagonals to zeros in term order, as _add_local adds them there: every
    entry is the same float as _sum_terms'.
    """
    for sites, m in terms:
        if not _is_diagonal(m):
            return None
        _hermitian(m, 0.0, f"term on {tuple(sites)} is not hermitian")
    return _diag_energy(dims, [(sites, m.diagonal().real) for sites, m in terms])


def _shifted(h: np.ndarray, offset: float, dims) -> HermOp:
    """h - offset * I as a HermOp, h from _sum_terms.

    The offset comes off the diagonal in place, which keeps h exactly
    hermitian, so h is wrapped as it is by operators._exact_herm: no D x D
    hermiticity check and no second D x D array.
    """
    np.fill_diagonal(h, h.diagonal() - offset)
    return _exact_herm(h, dims)


def _check_term(sites, matrix, dims) -> np.ndarray:
    sites = tuple(int(s) for s in sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"term support {sites} repeats a site")
    if not sites or min(sites) < 0 or max(sites) >= len(dims):
        raise ValueError(f"term support {sites} out of range")
    m = np.asarray(matrix, dtype=complex)
    d = total_dim([dims[s] for s in sites])
    if m.shape != (d, d):
        raise ValueError(f"term on {sites} has shape {m.shape}, expected {(d, d)}")
    return _hermitian(m, 1e-10 * max(1.0, _max_abs(m)),
                      f"term on {sites} is not hermitian")


def _commutation_defect(terms, dims) -> float:
    """Worst relative commutator norm over term pairs with overlapping support.

    A pair of exactly diagonal terms scores 0.0 unmeasured: diagonal
    matrices commute, and their measured commutator is exactly zero too.
    """
    worst = 0.0
    diagonal = [_is_diagonal(m) for _, m in terms]
    for a in range(len(terms)):
        sa, ma = terms[a]
        for b in range(a + 1, len(terms)):
            sb, mb = terms[b]
            if not set(sa) & set(sb) or diagonal[a] and diagonal[b]:
                continue
            union = sorted(set(sa) | set(sb))
            sub = [dims[s] for s in union]
            ea = embed(ma, [union.index(s) for s in sa], sub)
            eb = embed(mb, [union.index(s) for s in sb], sub)
            denom = operator_norm(ea) * operator_norm(eb)
            if denom == 0:
                continue
            worst = max(worst, operator_norm(ea @ eb - eb @ ea) / denom)
    return worst


def _finish_model(system, terms, meta=None, integer_spectrum=False) -> LocalModel:
    """The LocalModel of the builders' exactly hermitian ``terms``.

    The terms' commutation is certified. When every term is diagonal, the
    energy offset is the least entry of their summed diagonal (a diagonal
    matrix's eigenvalues are its entries, so this is the bits of
    _herm_eigvalsh on the sum), and the model keeps that diagonal,
    shifted: no D x D sum is assembled and nothing is factored. Otherwise
    the sum is assembled once, its least eigenvalue is the offset, and the
    sum is freed. The offset is snapped to the integer spectrum when asked.
    """
    diag = _summed_diagonal(terms, system.dims)
    if diag is None:
        e0 = float(_herm_eigvalsh(_sum_terms(terms, system.dims))[0])
    else:
        e0 = float(diag.min())
    if integer_spectrum:
        snapped = round(e0)
        if abs(e0 - snapped) > 1e-9:
            raise ValueError(f"expected an integer ground energy, got {e0}")
        e0 = float(snapped)
    return LocalModel(
        system=system,
        terms=terms,
        commutation_defect=_commutation_defect(terms, system.dims),
        energy_offset=e0,
        diagonal=None if diag is None else diag - e0,
        meta=meta or {},
    )


def two_local_model(system: QuditSystem, pair_terms, single_site_terms=None) -> LocalModel:
    """Build a model from pair terms plus optional single-site terms.

    ``pair_terms`` is a list of ((i, j), matrix) with the matrix given in the
    listed site order; a repeated unordered pair is rejected.
    """
    dims = system.dims
    terms: list[tuple[tuple[int, ...], np.ndarray]] = []
    seen = set()
    for sites, m in pair_terms:
        sites = tuple(int(s) for s in sites)
        if len(sites) != 2:
            raise ValueError(f"pair term support {sites} must have exactly two sites")
        key = frozenset(sites)
        if key in seen:
            raise ValueError(f"duplicate pair {tuple(sorted(sites))}")
        seen.add(key)
        terms.append((sites, _check_term(sites, m, dims)))
    for site, m in single_site_terms or []:
        site = int(site)
        if (site,) in [s for s, _ in terms]:
            raise ValueError(f"duplicate single-site term on {site}")
        terms.append(((site,), _check_term((site,), m, dims)))
    return _finish_model(system, terms)


def pauli_string_matrix(s: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for c in s:
        if c not in PAULIS:
            raise ValueError(f"non-Pauli symbol {c!r}")
        out = np.kron(out, PAULIS[c])
    return out


def pauli_string_local(s: str) -> tuple[tuple[int, ...], np.ndarray]:
    """(sites, matrix): the non-identity sites of a Pauli string and the kron
    product of their letters on those sites (1 x 1 when there are none)."""
    sites = tuple(k for k, c in enumerate(s) if c != "I")
    return sites, pauli_string_matrix("".join(s[k] for k in sites))


def single_site_paulis(n: int):
    """Labels of X, Y and Z on each of n qubits, site by site."""
    for site in range(n):
        for p in "XYZ":
            yield "I" * site + p + "I" * (n - site - 1)


def _pauli_strings_commute(a: str, b: str) -> bool:
    clashes = sum(1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y)
    return clashes % 2 == 0


def stabilizer_hamiltonian(n_qubits: int, generators: list[str]) -> LocalModel:
    """Sum of (I - g)/2 over mutually commuting Pauli string generators.

    Each generator contributes a term on its non-identity sites, so locality
    follows the strings (ZZ chains give pair terms, weight-4 generators give
    4-site terms). The spectrum is integer and the ground energy is shifted
    to exactly 0.
    """
    n = int(n_qubits)
    system = QuditSystem((2,) * n)
    gens = [g.upper() for g in generators]
    for g in gens:
        if len(g) != n:
            raise ValueError(f"generator {g!r} has length {len(g)}, expected {n}")
        if any(c not in PAULIS for c in g):
            raise ValueError(f"non-Pauli symbol in {g!r}")
        if all(c == "I" for c in g):
            raise ValueError(f"trivial generator {g!r}")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not _pauli_strings_commute(gens[i], gens[j]):
                raise ValueError(f"generators {gens[i]!r} and {gens[j]!r} anticommute")
    terms = []
    for g in gens:
        support, body = pauli_string_local(g)
        terms.append((support, 0.5 * (np.eye(body.shape[0]) - body)))
    return _finish_model(system, terms, meta={"stabilizers": gens}, integer_spectrum=True)


def repetition_model(n: int) -> LocalModel:
    """Ferromagnetic chain with ZZ checks; two-fold degenerate ground space."""
    if n < 2:
        raise ValueError("need at least two qubits")
    QuditSystem((2,) * n)       # the cap, before n - 1 strings of length n
    gens = ["I" * k + "ZZ" + "I" * (n - k - 2) for k in range(n - 1)]
    return stabilizer_hamiltonian(n, gens)


def four_two_two_model() -> LocalModel:
    """Four qubits stabilized by XXXX and ZZZZ; four-fold degenerate ground space."""
    return stabilizer_hamiltonian(4, ["XXXX", "ZZZZ"])


def random_commuting_model(
    system: QuditSystem,
    pairs,
    seed: int,
    ensure_ground_degeneracy: int = 1,
) -> LocalModel:
    """Commuting pair terms that are diagonal in one rotated product basis.

    Draws a Haar-random local basis per site and quarter-integer couplings
    per pair (exact in floating point, so spectral gaps are exact), builds
    each term diagonal in the induced product basis, then rotates. All terms
    are diagonal in the same basis, so the family commutes by construction
    and the result is byte-identical for a fixed seed.

    ``ensure_ground_degeneracy`` forces at least that many ground labels by
    lowering runner-up product labels into an exact tie (see inline note).
    """
    rng = np.random.default_rng(seed)
    dims = system.dims
    pairs = [tuple(int(s) for s in p) for p in pairs]
    for p in pairs:
        if len(p) != 2 or p[0] == p[1]:
            raise ValueError(f"bad pair {p}")
        if min(p) < 0 or max(p) >= system.n_sites:
            raise ValueError(f"pair {p} out of range")
    if len(set(frozenset(p) for p in pairs)) != len(pairs):
        raise ValueError("duplicate pair")
    target = max(1, int(ensure_ground_degeneracy))
    if target > system.total_dim:
        raise ValueError(f"ground degeneracy {target} exceeds the dimension {system.total_dim}")

    rotations = [np.eye(d) + 0j for d in dims]
    touched = sorted(set(s for p in pairs for s in p))
    for s in touched:
        rotations[s] = haar_unitary(dims[s], rng)

    couplings = [rng.integers(0, 13, size=dims[i] * dims[j]) / 4.0 for i, j in pairs]

    # Force ground degeneracy by exact ties. Let a* be the minimizing product
    # label and b the runner-up; lowering the coupling entry that b uses on a
    # pair where b differs from a* drops E(b) to E(a*) and drops every other
    # label sharing that entry by the same amount, but those started at or
    # above E(b), so nothing falls below E(a*).
    for _ in range(64):
        energies = _diag_energy(dims, zip(pairs, couplings))
        ground = energies.min()
        degenerate = int(np.sum(energies == ground))
        if degenerate >= target:
            break
        labels = np.unravel_index(np.argsort(energies, kind="stable"), dims)
        a_star = tuple(int(x[0]) for x in labels)
        b = tuple(int(x[degenerate]) for x in labels)
        delta = float(np.sort(energies)[degenerate] - ground)
        for k, (i, j) in enumerate(pairs):
            if (b[i], b[j]) != (a_star[i], a_star[j]):
                flat = b[i] * dims[j] + b[j]
                couplings[k] = couplings[k].astype(float)
                couplings[k][flat] -= delta
                break
        else:
            raise ValueError("runner-up label differs only on uncoupled sites")
    else:
        raise ValueError(f"could not reach ground degeneracy {target}")

    terms = []
    for (i, j), c in zip(pairs, couplings):
        u = np.kron(rotations[i], rotations[j])
        m = (u * c.astype(float)) @ u.conj().T
        terms.append(((i, j), 0.5 * (m + m.conj().T)))
    energies = _diag_energy(dims, zip(pairs, couplings))
    model = LocalModel(
        system=system,
        terms=terms,
        commutation_defect=_commutation_defect(terms, dims),
        energy_offset=float(energies.min()),
        meta={"seed": int(seed), "rotations": rotations, "couplings": couplings},
    )
    if not model.commuting:
        raise AssertionError("rotated-diagonal terms failed the commutation certificate")
    return model


def block_sites(model: LocalModel, groups) -> LocalModel:
    """Merge consecutive site groups into coarser qudits.

    ``groups`` partitions the sites into consecutive runs in order, e.g.
    [[0], [1, 2]]. Merging consecutive sites keeps the kron ordering, so the
    assembled hamiltonian matrix is unchanged; the spectrum is re-verified
    anyway. A term whose support meets three or more groups is rejected.
    Of the model's meta only its seed is kept: its stabilizer strings and
    its per-site rotations describe the unblocked sites.
    """
    dims = model.system.dims
    groups = [list(int(s) for s in g) for g in groups]
    flat = [s for g in groups for s in g]
    if flat != list(range(model.n_sites)):
        raise ValueError("groups must partition the sites into consecutive runs in order")
    group_of = {}
    for gi, g in enumerate(groups):
        for s in g:
            group_of[s] = gi
    new_dims = tuple(total_dim([dims[s] for s in g]) for g in groups)
    new_system = QuditSystem(new_dims)

    new_terms = []
    for sites, m in model.terms:
        touched = sorted(set(group_of[s] for s in sites))
        if len(touched) > 2:
            raise ValueError(
                f"term on {sites} straddles {len(touched)} groups; blocking cannot keep it two-local"
            )
        merged_sites = [s for gi in touched for s in groups[gi]]
        sub_dims = [dims[s] for s in merged_sites]
        local = [merged_sites.index(s) for s in sites]
        new_m = embed(m, local, sub_dims)
        new_terms.append((tuple(touched), new_m))

    seed = {k: v for k, v in model.meta.items() if k == "seed"}
    blocked = _finish_model(new_system, new_terms, meta=seed)
    old = _herm_eigvalsh(model.hamiltonian())
    new = _herm_eigvalsh(blocked.hamiltonian())
    if _max_abs(old - new) > 1e-10 * max(1.0, _max_abs(old)):
        raise AssertionError("blocking changed the spectrum")
    return blocked


# ------------------------------------------------------------------ JSON I/O


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists with [re, im] pairs for each entry."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError("matrix JSON must be a square nested list of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix JSON has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def model_to_json(model: LocalModel) -> dict:
    """The inline-model format of ``model``: its stabilizer strings, or its
    terms with those on one support summed, as the format holds one term
    per support (a blocked [[4,2,2]] model has two on its one pair)."""
    data: dict = {"dims": list(model.system.dims)}
    if "stabilizers" in model.meta:
        data["stabilizers"] = list(model.meta["stabilizers"])
    else:
        merged: dict = {}
        for sites, m in model.terms:
            merged[sites] = merged[sites] + m if sites in merged else m
        data["terms"] = [
            {"sites": list(sites), "matrix": matrix_to_json(m)} for sites, m in merged.items()
        ]
    if "seed" in model.meta:
        data["seed"] = int(model.meta["seed"])
    return data


def build_model(dims, terms=None, stabilizers=None, seed=None) -> LocalModel:
    """Build an inline model (model_to_json's format) from parsed fields.

    Each {sites, matrix} term holds its matrix, not JSON pairs; the command
    line's _INLINE_MODEL table parses them.
    """
    dims = tuple(int(d) for d in dims)
    if bool(terms) == bool(stabilizers):
        raise ValueError("model JSON needs exactly one of 'terms' or 'stabilizers'")
    if stabilizers:
        if any(d != 2 for d in dims):
            raise ValueError("stabilizer models need qubit sites")
        model = stabilizer_hamiltonian(len(dims), list(stabilizers))
    else:
        terms = [(tuple(int(s) for s in t["sites"]), t["matrix"]) for t in terms]
        for sites, _ in terms:
            if not 1 <= len(sites) <= 2:
                raise ValueError(f"term sites {sites} must list one or two sites")
        pair = [(s, m) for s, m in terms if len(s) == 2]
        single = [(s[0], m) for s, m in terms if len(s) == 1]
        model = two_local_model(QuditSystem(dims), pair, single)
    if seed is not None:
        model = replace(model, meta={**model.meta, "seed": int(seed)})
    return model
