"""Legacy mapper loops, kept as test oracles.

Each class below subclasses a library mapper and overrides ``_run`` with
the loop that mapper ran before population batching, delta evaluation
and the shared move-evaluator loop existed: one full
``construction_makespan`` (or ``_objective``) evaluation per genome or
per candidate move, plus each mapper's own copy of the area repair.  The
loops are the former library code verbatim, minus the flag that used to
select them.

The library mappers must reproduce these trajectories bit for bit (same
rng draws, same accepted moves, same history, same final mapping) —
pinned by ``tests/test_batch_population.py``,
``tests/test_kernel_delta.py`` and ``benchmarks/test_meta.py`` (which
also times them as the same-process slow side).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.evaluation import CostModel, MappingEvaluator
from repro.evaluation.energy import EnergyModel
from repro.mappers import (
    DecompositionMapper,
    NsgaIIMapper,
    ParetoNsgaIIMapper,
    SimulatedAnnealingMapper,
    TabuSearchMapper,
)
from repro.mappers.genetic import single_point_crossover
from repro.mappers.multiobjective import (
    EnergyAwareDecompositionMapper,
    nondominated_sort,
)
from repro.obs import trace as _trace
from repro.sp.subgraphs import series_parallel_candidates, single_node_candidates


def kernel_evaluator(graph, platform, use_ckernel, *, seed=0, n_random=10):
    """A ``MappingEvaluator`` whose cost model runs the chosen kernel
    (``use_ckernel`` as in :class:`CostModel`: ``False`` forces Python)."""
    ev = MappingEvaluator(
        graph,
        platform,
        rng=np.random.default_rng(seed),
        n_random_schedules=n_random,
    )
    ev.model = CostModel(graph, platform, use_ckernel=use_ckernel)
    return ev


class LegacyNsgaIIMapper(NsgaIIMapper):
    """NSGA-II with per-genome scalar fitness and its own repair loop."""

    def _repair(self, pop: np.ndarray, area: np.ndarray, host: int,
                capacities: Sequence[Tuple[int, float]],
                rng: np.random.Generator) -> None:
        """Move tasks off over-committed area devices until feasible (in place)."""
        for d, capacity in capacities:
            usage = (pop == d) @ area
            for r in np.nonzero(usage > capacity)[0]:
                genome = pop[r]
                on_dev = np.nonzero(genome == d)[0]
                order = rng.permutation(on_dev)
                used = float(area[on_dev].sum())
                for g in order:
                    if used <= capacity:
                        break
                    genome[g] = host
                    used -= area[g]

    def _fitness(self, evaluator: MappingEvaluator, pop: np.ndarray) -> np.ndarray:
        return np.array(
            [evaluator.construction_makespan(ind) for ind in pop]
        )

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        n = evaluator.n_tasks
        m = evaluator.n_devices
        pop_size = self.population_size
        p_mut = self.mutation_rate if self.mutation_rate is not None else 1.0 / n
        area = evaluator.model._area  # noqa: SLF001 - package-internal
        host = evaluator.platform.host_index
        capacities = list(evaluator.platform.area_capacities().items())

        pop = rng.integers(0, m, size=(pop_size, n), dtype=np.int64)
        if self.seed_cpu_individual:
            pop[0] = host
        self._repair(pop, area, host, capacities, rng)
        fitness = self._fitness(evaluator, pop)
        history: List[float] = []

        for _ in range(self.generations):
            # binary tournament selection of parents
            a = rng.integers(0, pop_size, size=pop_size)
            b = rng.integers(0, pop_size, size=pop_size)
            parents = np.where(fitness[a] <= fitness[b], a, b)

            children = pop[parents]
            single_point_crossover(children, rng, self.crossover_rate)
            # per-gene mutation
            mask = rng.random(size=children.shape) < p_mut
            if mask.any():
                children[mask] = rng.integers(0, m, size=int(mask.sum()))
            self._repair(children, area, host, capacities, rng)

            child_fitness = self._fitness(evaluator, children)
            # (mu + lambda) elitism == single-objective NSGA-II survival
            combined = np.concatenate([pop, children])
            combined_fit = np.concatenate([fitness, child_fitness])
            keep = np.argsort(combined_fit, kind="stable")[:pop_size]
            pop = combined[keep]
            fitness = combined_fit[keep]
            history.append(float(fitness[0]))

        self.history_ = history
        best = int(np.argmin(fitness))
        stats = {
            "generations": float(self.generations),
            "best_makespan": float(fitness[best]),
        }
        return pop[best].copy(), stats


class LegacyParetoNsgaIIMapper(ParetoNsgaIIMapper):
    """Pareto NSGA-II with per-genome scalar objectives and its own repair."""

    def _evaluate(
        self, pop: np.ndarray, evaluator: MappingEvaluator, energy: EnergyModel
    ) -> np.ndarray:
        objs = np.empty((len(pop), 2))
        for r, ind in enumerate(pop):
            ms = evaluator.construction_makespan(ind)
            objs[r, 0] = ms
            objs[r, 1] = (
                energy.energy(ind, makespan=ms, check_feasibility=False)
                if np.isfinite(ms)
                else np.inf
            )
        return objs

    def _repair(self, pop, evaluator, rng) -> None:
        model = evaluator.model
        area = model._area  # noqa: SLF001
        host = evaluator.platform.host_index
        for d, capacity in evaluator.platform.area_capacities().items():
            usage = (pop == d) @ area
            for r in np.nonzero(usage > capacity)[0]:
                genome = pop[r]
                on_dev = rng.permutation(np.nonzero(genome == d)[0])
                used = float(area[np.nonzero(genome == d)[0]].sum())
                for g in on_dev:
                    if used <= capacity:
                        break
                    genome[g] = host
                    used -= area[g]

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        n = evaluator.n_tasks
        m = evaluator.n_devices
        pop_size = self.population_size
        p_mut = self.mutation_rate if self.mutation_rate is not None else 1.0 / n
        energy = EnergyModel(evaluator.model)

        pop = rng.integers(0, m, size=(pop_size, n), dtype=np.int64)
        pop[0] = evaluator.platform.host_index
        self._repair(pop, evaluator, rng)
        objs = self._evaluate(pop, evaluator, energy)
        history: List[Tuple[float, float]] = []

        for _ in range(self.generations):
            a = rng.integers(0, pop_size, size=pop_size)
            b = rng.integers(0, pop_size, size=pop_size)
            oa = np.where(np.isnan(objs[a]), np.inf, objs[a])
            ob = np.where(np.isnan(objs[b]), np.inf, objs[b])
            a_dom = ((oa <= ob).all(1) & (oa < ob).any(1)).tolist()
            b_dom = ((ob <= oa).all(1) & (ob < oa).any(1)).tolist()
            pick_a = np.empty(pop_size, dtype=bool)
            for k in range(pop_size):
                if a_dom[k]:
                    pick_a[k] = True
                elif b_dom[k]:
                    pick_a[k] = False
                else:
                    pick_a[k] = rng.random() < 0.5
            parents = np.where(pick_a, a, b)
            children = pop[parents].copy()
            single_point_crossover(children, rng, self.crossover_rate)
            mask = rng.random(size=children.shape) < p_mut
            if mask.any():
                children[mask] = rng.integers(0, m, size=int(mask.sum()))
            self._repair(children, evaluator, rng)
            child_objs = self._evaluate(children, evaluator, energy)

            combined = np.vstack([pop, children])
            combined_objs = np.vstack([objs, child_objs])
            keep = self._survival(combined_objs, pop_size)
            pop = combined[keep]
            objs = combined_objs[keep]
            history.append(
                (float(objs[:, 0].min()), float(objs[:, 1].min()))
            )

        self.history_ = history
        # final front and knee selection
        finite = np.isfinite(objs).all(axis=1)
        pop, objs = pop[finite], objs[finite]
        front_idx = nondominated_sort(objs)[0]
        seen = set()
        self.last_front_ = []
        for i in sorted(front_idx, key=lambda i: objs[i, 0]):
            key = (round(float(objs[i, 0]), 12), round(float(objs[i, 1]), 9))
            if key not in seen:
                seen.add(key)
                self.last_front_.append(
                    (pop[i].copy(), float(objs[i, 0]), float(objs[i, 1]))
                )
        knee = self._knee(objs[front_idx])
        best = pop[front_idx[knee]].copy()
        return best, {
            "generations": float(self.generations),
            "front_size": float(len(front_idx)),
            "best_makespan": float(objs[front_idx, 0].min()),
            "best_energy": float(objs[front_idx, 1].min()),
        }


class LegacyTabuSearchMapper(TabuSearchMapper):
    """Tabu search with one scalar simulation per sampled move."""

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        g = evaluator.graph
        index = evaluator.model.index
        m = evaluator.n_devices

        if self.use_subgraph_moves:
            sets = series_parallel_candidates(
                g, rng=rng, cut_strategy=self.cut_strategy
            )
        else:
            sets = single_node_candidates(g)
        subgraphs: List[np.ndarray] = [
            np.fromiter((index[t] for t in s), dtype=np.int64, count=len(s))
            for s in sets
        ]
        moves: List[Tuple[int, int]] = [
            (k, d) for k in range(len(subgraphs)) for d in range(m)
        ]

        current = evaluator.cpu_mapping()
        current_ms = evaluator.construction_makespan(current)
        best = current.copy()
        best_ms = current_ms

        tabu: deque = deque(maxlen=self.tenure if self.tenure > 0 else None)
        tabu_set = set()
        improved_iters = 0
        history: List[float] = []

        for _ in range(self.iterations):
            sample_idx = rng.choice(
                len(moves), size=min(self.neighborhood, len(moves)),
                replace=False,
            )
            chosen = None
            chosen_ms = np.inf
            chosen_move = None
            for mi in sample_idx:
                k, d = moves[mi]
                sub = subgraphs[k]
                if np.all(current[sub] == d):
                    continue
                trial = current.copy()
                trial[sub] = d
                ms = evaluator.construction_makespan(trial)
                if not np.isfinite(ms):
                    continue
                is_tabu = (k, d) in tabu_set
                # aspiration: a tabu move is admissible if it beats best-seen
                if is_tabu and ms >= best_ms - 1e-12:
                    continue
                if ms < chosen_ms:
                    chosen = trial
                    chosen_ms = ms
                    chosen_move = (k, d)
            if chosen is not None:
                current = chosen
                current_ms = chosen_ms
                if self.tenure > 0:
                    if len(tabu) == tabu.maxlen:
                        tabu_set.discard(tabu[0])
                    tabu.append(chosen_move)
                    tabu_set.add(chosen_move)
                if current_ms < best_ms:
                    best = current.copy()
                    best_ms = current_ms
                    improved_iters += 1
            history.append(best_ms)
        self.history_ = history
        return best, {
            "iterations": float(self.iterations),
            "improving_steps": float(improved_iters),
            "best_makespan": best_ms,
        }


class LegacySimulatedAnnealingMapper(SimulatedAnnealingMapper):
    """Simulated annealing with one scalar simulation per proposed move."""

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        n = evaluator.n_tasks
        m = evaluator.n_devices
        index = evaluator.model.index

        subgraphs: List[np.ndarray] = []
        if self.use_subgraph_moves:
            for s in series_parallel_candidates(evaluator.graph, rng=rng):
                if len(s) > 1:
                    subgraphs.append(
                        np.fromiter((index[t] for t in s), dtype=np.int64)
                    )

        current = evaluator.cpu_mapping()
        current_ms = evaluator.construction_makespan(current)
        best = current.copy()
        best_ms = current_ms
        # temperature is relative to the baseline makespan
        temp = self.start_temperature * current_ms
        accepted = 0
        history: List[float] = []

        for _ in range(self.iterations):
            trial = current.copy()
            if subgraphs and rng.random() < self.subgraph_move_prob:
                sub = subgraphs[int(rng.integers(len(subgraphs)))]
                trial[sub] = int(rng.integers(m))
            else:
                trial[int(rng.integers(n))] = int(rng.integers(m))
            ms = evaluator.construction_makespan(trial)
            if not np.isfinite(ms):
                temp *= self.cooling
                history.append(best_ms)
                continue
            dms = ms - current_ms
            if dms <= 0 or rng.random() < np.exp(-dms / max(temp, 1e-12)):
                current = trial
                current_ms = ms
                accepted += 1
                if ms < best_ms:
                    best = trial.copy()
                    best_ms = ms
            temp *= self.cooling
            history.append(best_ms)
        self.history_ = history
        return best, {
            "iterations": float(self.iterations),
            "accepted": float(accepted),
            "best_makespan": best_ms,
        }


class LegacyDecompositionMapper(DecompositionMapper):
    """Decomposition mapping with one full ``_objective`` per move."""

    def _run(
        self, evaluator: MappingEvaluator, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        with _trace.span("mapper.decompose", "mapper"):
            subgraphs = self.candidate_index_sets(evaluator, rng)
        n_devices = evaluator.n_devices
        mapping = evaluator.cpu_mapping()
        cap = max(1, int(np.ceil(self.iteration_cap_factor * evaluator.n_tasks)))
        with _trace.span("mapper.construct", "mapper"):
            moves: List[Tuple[np.ndarray, int]] = [
                (sub, d) for sub in subgraphs for d in range(n_devices)
            ]
            current = self._objective(evaluator, mapping)
        with _trace.span("mapper.improve", "mapper"):
            if self.heuristic == "basic":
                mapping, current, iterations = self._run_basic(
                    evaluator, mapping, current, moves, cap
                )
            else:
                mapping, current, iterations = self._run_gamma(
                    evaluator, mapping, current, moves, cap
                )
        n_moves = len(moves)
        stats = {
            "iterations": float(iterations),
            "n_candidates": float(len(subgraphs)),
            "n_moves": float(n_moves),
        }
        return mapping, stats

    def _run_basic(
        self,
        evaluator: MappingEvaluator,
        mapping: np.ndarray,
        current: float,
        moves: Sequence[Tuple[np.ndarray, int]],
        cap: int,
    ) -> Tuple[np.ndarray, float, int]:
        iterations = 0
        eps = 1e-12
        while iterations < cap:
            best_ms = current
            best_move: Optional[Tuple[np.ndarray, int]] = None
            for sub, d in moves:
                if np.all(mapping[sub] == d):
                    continue
                trial = mapping.copy()
                trial[sub] = d
                ms = self._objective(evaluator, trial)
                if ms < best_ms - eps:
                    best_ms = ms
                    best_move = (sub, d)
            if best_move is None:
                break
            mapping[best_move[0]] = best_move[1]
            current = best_ms
            iterations += 1
        return mapping, current, iterations

    def _run_gamma(
        self,
        evaluator: MappingEvaluator,
        mapping: np.ndarray,
        current: float,
        moves: Sequence[Tuple[np.ndarray, int]],
        cap: int,
    ) -> Tuple[np.ndarray, float, int]:
        eps = 1e-12
        n_moves = len(moves)
        expected = [0.0] * n_moves  # expected improvement per move

        def evaluate(k: int) -> float:
            sub, d = moves[k]
            if np.all(mapping[sub] == d):
                return 0.0
            trial = mapping.copy()
            trial[sub] = d
            return current - self._objective(evaluator, trial)

        # First pass (Sec. III-D: expectations are assigned "after the first
        # iteration of the algorithm"): evaluate every move once.
        best_gain = 0.0
        best_idx = -1
        for k in range(n_moves):
            gain = evaluate(k)
            expected[k] = gain
            if gain > best_gain + eps:
                best_gain = gain
                best_idx = k
        iterations = 0
        if best_idx < 0:
            return mapping, current, iterations
        sub, d = moves[best_idx]
        mapping[sub] = d
        current -= best_gain
        iterations += 1

        while iterations < cap:
            # One round: scan moves in descending expected improvement
            # (the paper's priority queue); once an actual improvement b is
            # found, only look ahead while expected > b / gamma.  A round
            # that finds nothing has recomputed *every* move under the final
            # mapping (the paper's exact-termination pass).
            order = sorted(range(n_moves), key=lambda k: -expected[k])
            best_gain = 0.0
            best_idx = -1
            for k in order:
                if best_gain > eps and expected[k] <= best_gain / self.gamma + eps:
                    break
                gain = evaluate(k)
                expected[k] = gain
                if gain > best_gain + eps:
                    best_gain = gain
                    best_idx = k
            if best_idx < 0:
                break
            sub, d = moves[best_idx]
            mapping[sub] = d
            current -= best_gain
            iterations += 1
        return mapping, current, iterations


class LegacyEnergyAwareDecompositionMapper(
    EnergyAwareDecompositionMapper, LegacyDecompositionMapper
):
    """The energy-aware objective on the legacy full-evaluation loop."""
