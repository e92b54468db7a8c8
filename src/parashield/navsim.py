"""Robot navigation with limited visibility in an unknown obstacle world.

The robot senses obstacles inside an axis-aligned square around its current
position.  Shield synthesis happens in the robot's translated (never rotated)
frame over that square extended by an artificial fence band: unknown territory
beyond the sensing range is treated as unsafe, which is what makes every
shield-permitted move land inside the next step's shield domain.
"""

from __future__ import annotations

import csv
import time
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .abstraction import (
    BoxedAbstraction,
    DisturbanceBox,
    DubinsParams,
    GridSpec,
    InputGrid,
    dubins_step,
    wrap_angle,
)
from .errors import DomainViolation, GenerationFailed, GridMismatch
from .shield import AtomicShieldBank, compose, pure_online_shield, shield_apply
from .synthesis import StateSets


@dataclass
class WorldMap:
    """Global world: bounds, axis-aligned rectangular obstacles, goal, start pose."""

    bounds: tuple
    obstacles: list
    goal: tuple
    start: tuple

    def __post_init__(self):
        x0, y0, x1, y1 = self.bounds
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"bounds {tuple(self.bounds)} are not ordered as x0 < x1, y0 < y1")
        gx0, gy0, gx1, gy1 = self.goal
        if not (x0 <= gx0 <= gx1 <= x1 and y0 <= gy0 <= gy1 <= y1):
            raise ValueError("goal rectangle must lie inside the bounds")
        sx, sy = self.start[0], self.start[1]
        if not (x0 <= sx <= x1 and y0 <= sy <= y1):
            raise ValueError(f"start position ({sx}, {sy}) lies outside the bounds")
        for ob in self.obstacles:
            if not (ob[0] <= ob[2] and ob[1] <= ob[3]):
                raise ValueError(f"obstacle {tuple(ob)} is not ordered as x0 <= x1, y0 <= y1")
            if ob[0] <= sx <= ob[2] and ob[1] <= sy <= ob[3]:
                raise ValueError("start pose lies inside an obstacle")


def save_world(world: WorldMap, path):
    with open(path, "w") as f:
        f.write("bounds %r %r %r %r\n" % tuple(world.bounds))
        for ob in world.obstacles:
            f.write("obstacle %r %r %r %r\n" % tuple(ob))
        f.write("goal %r %r %r %r\n" % tuple(world.goal))
        f.write("start %r %r %r\n" % tuple(world.start))


def load_world(path) -> WorldMap:
    bounds = goal = start = None
    obstacles = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            kind, vals = parts[0], parts[1:]
            try:
                nums = tuple(float(v) for v in vals)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: bad number in {kind!r} record: {e}") from None
            want = 3 if kind == "start" else 4
            if kind not in ("bounds", "obstacle", "goal", "start"):
                raise ValueError(f"{path}:{lineno}: unknown record {kind!r}")
            if len(nums) != want:
                raise ValueError(f"{path}:{lineno}: {kind!r} needs {want} fields, got {len(nums)}")
            if not np.all(np.isfinite(nums)):
                raise ValueError(f"{path}:{lineno}: non-finite number in {kind!r} record")
            if kind == "bounds":
                bounds = nums
            elif kind == "obstacle":
                obstacles.append(nums)
            elif kind == "goal":
                goal = nums
            else:
                start = nums
    if bounds is None or goal is None or start is None:
        raise ValueError(f"{path}: missing bounds, goal or start record")
    return WorldMap(bounds, obstacles, goal, start)


class SensingConfig:
    """Visibility range, fence thickness, and the robot-frame shield problem.

    The shield's state box is [-d-eps, d+eps]^2 x [-pi, pi) in the robot's
    translated frame.  The per-step displacement bound v_max*tau + w must stay
    below eps, otherwise one step could jump across the fence and handover
    could not be guaranteed; this is checked at construction time.
    """

    def __init__(self, d, epsilon, grid: GridSpec, inputs: InputGrid,
                 params: DubinsParams, obstacle_margin=0.0):
        if epsilon <= 0:
            raise ValueError("fence thickness must be positive")
        self.d = float(d)
        self.epsilon = float(epsilon)
        self.grid = grid
        self.inputs = inputs
        self.params = params
        self.obstacle_margin = float(obstacle_margin)
        ext = self.d + self.epsilon
        want_lo = np.array([-ext, -ext, -np.pi])
        want_hi = np.array([ext, ext, np.pi])
        if not (np.allclose(grid.lower, want_lo) and np.allclose(grid.upper, want_hi)):
            raise GridMismatch("shield grid must span [-d-eps, d+eps]^2 x [-pi, pi)")
        v_max = float(np.abs(inputs.points[:, 0]).max())
        w_xy = float(params.disturbance.radius[:2].max())
        self.step_bound = v_max * params.tau + w_xy
        if not self.step_bound < epsilon:
            raise ValueError(
                f"per-step displacement bound {self.step_bound} must stay below the fence thickness {epsilon}"
            )


def make_sensing_config(d=1.0, epsilon=0.3, eta=(0.10, 0.10, 0.30), tau=0.1,
                        w=(0.01, 0.01, 0.02), v_values=None, a_values=None,
                        obstacle_margin=0.0) -> SensingConfig:
    """Standard vehicle setup over the visible square plus fences."""
    ext = d + epsilon
    grid = GridSpec.from_target_eta(
        [-ext, -ext, -np.pi], [ext, ext, np.pi], eta, periodic=[False, False, True]
    )
    if v_values is None:
        v_values = [-0.4, -0.2, 0.0, 0.2, 0.4]
    if a_values is None:
        a_values = [-4.0 + 0.5 * k for k in range(17)]
    inputs = InputGrid.from_values(v_values, a_values)
    params = DubinsParams(tau=tau, disturbance=DisturbanceBox(w))
    return SensingConfig(d, epsilon, grid, inputs, params, obstacle_margin=obstacle_margin)


class ColumnLayout:
    """Index bookkeeping for X-Y cell columns of the robot-frame grid.

    Interior columns (fully inside [-d, d]^2) get atomic ids 1..n in row-major
    order; id 0 is the always-active fence atomic.  The interior region is a
    contiguous index rectangle, so ids are pure arithmetic.
    """

    def __init__(self, grid: GridSpec, d):
        nx, ny, nt = grid.shape
        tol = 1e-9 * max(d, 1.0)
        x_lo = grid.lower[0] + np.arange(nx) * grid.eta[0]
        x_hi = x_lo + grid.eta[0]
        y_lo = grid.lower[1] + np.arange(ny) * grid.eta[1]
        y_hi = y_lo + grid.eta[1]
        ok_x = np.nonzero((x_lo >= -d - tol) & (x_hi <= d + tol))[0]
        ok_y = np.nonzero((y_lo >= -d - tol) & (y_hi <= d + tol))[0]
        if ok_x.size == 0 or ok_y.size == 0:
            raise GridMismatch("no interior columns; grid too coarse for the visible square")
        self.grid = grid
        self.nx, self.ny, self.nt = nx, ny, nt
        self.ix0, self.ix1 = int(ok_x[0]), int(ok_x[-1])
        self.iy0, self.iy1 = int(ok_y[0]), int(ok_y[-1])
        self.n_ix = self.ix1 - self.ix0 + 1
        self.n_iy = self.iy1 - self.iy0 + 1
        self.n_interior = self.n_ix * self.n_iy
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi

    def id_of(self, ix, iy):
        return 1 + (ix - self.ix0) * self.n_iy + (iy - self.iy0)

    def column_of(self, atomic_id):
        q, r = divmod(atomic_id - 1, self.n_iy)
        return q + self.ix0, r + self.iy0

    def column_cells(self, ix, iy):
        base = (ix * self.ny + iy) * self.nt
        return np.arange(base, base + self.nt, dtype=np.int64)

    def fence_mask(self):
        m = np.ones((self.nx, self.ny), dtype=bool)
        m[self.ix0:self.ix1 + 1, self.iy0:self.iy1 + 1] = False
        return np.repeat(m.reshape(-1), self.nt)


def make_atomics(grid: GridSpec, d, epsilon) -> StateSets:
    """Atomic safe sets: id 0 excludes only the fence; id i>0 additionally
    excludes one interior X-Y column over the full heading range.  They are
    stored as the fence's complement and the column each atomic lacks."""
    layout = ColumnLayout(grid, d)
    lacks = [layout.column_cells(*layout.column_of(i)) for i in range(1, layout.n_interior + 1)]
    ptr = np.cumsum([0, 0] + [c.size for c in lacks], dtype=np.int64)
    return StateSets(~layout.fence_mask(), ptr, np.concatenate(lacks))


@dataclass
class VisibleSnapshot:
    """Atomic specifications active for the current sensing snapshot."""

    active: tuple

    def __post_init__(self):
        if 0 not in self.active:
            raise ValueError("the fence atomic must always be active")


def frame_center(pose, grid: GridSpec):
    """Robot-frame anchor: the pose snapped to the global lattice of cell pitch.

    Anchoring frames on the lattice makes consecutive frames differ by whole
    cells, so obstacles quantize to the same cells (up to that whole-cell
    shift) in both frames; a cell admitted by one step's shield is then the
    same physical box the next step's shield reasons about.  Re-centering at
    the exact pose instead lets the quantized obstacle boundary jitter by one
    cell between steps, which occasionally expels the robot's cell from the
    next domain.
    """
    ex, ey = grid.eta[0], grid.eta[1]
    return (float(np.floor(pose[0] / ex + 0.5) * ex),
            float(np.floor(pose[1] / ey + 0.5) * ey))


def frame_cell(pose, grid: GridSpec):
    """Grid cell of the robot inside its own (lattice-anchored) frame."""
    cx, cy = frame_center(pose, grid)
    return grid.quantize((pose[0] - cx, pose[1] - cy, pose[2]))


def sense(world: WorldMap, pose, cfg: SensingConfig, layout: ColumnLayout) -> VisibleSnapshot:
    """Translate obstacles into the robot frame and activate the atomics of
    every interior column whose rectangle meets an obstacle (over-approximated:
    any overlap, including boundary contact, marks the column unsafe)."""
    px, py = frame_center(pose, cfg.grid)
    eta_x, eta_y = cfg.grid.eta[0], cfg.grid.eta[1]
    lo_x, lo_y = cfg.grid.lower[0], cfg.grid.lower[1]
    m = cfg.obstacle_margin
    active = {0}
    for ob in world.obstacles:
        ox0, oy0, ox1, oy1 = ob[0] - px - m, ob[1] - py - m, ob[2] - px + m, ob[3] - py + m
        ix_min = int(np.ceil((ox0 - lo_x) / eta_x - 1.0))
        ix_max = int(np.floor((ox1 - lo_x) / eta_x))
        iy_min = int(np.ceil((oy0 - lo_y) / eta_y - 1.0))
        iy_max = int(np.floor((oy1 - lo_y) / eta_y))
        ix_min = max(ix_min, layout.ix0)
        ix_max = min(ix_max, layout.ix1)
        iy_min = max(iy_min, layout.iy0)
        iy_max = min(iy_max, layout.iy1)
        for ix in range(ix_min, ix_max + 1):
            for iy in range(iy_min, iy_max + 1):
                active.add(layout.id_of(ix, iy))
    return VisibleSnapshot(tuple(sorted(active)))


def scripted_controller(pose, goal, cfg: SensingConfig):
    """Deterministic stand-in for a task controller: proportional heading
    control toward the goal center, slow when badly aligned."""
    gx = (goal[0] + goal[2]) / 2.0
    gy = (goal[1] + goal[3]) / 2.0
    bearing = np.arctan2(gy - pose[1], gx - pose[0])
    err = float(wrap_angle(bearing - pose[2]))
    a_cmd = float(np.clip(2.0 * err, -4.0, 4.0))
    v_cmd = 0.4 if abs(err) < np.pi / 4 else 0.2
    return cfg.inputs[cfg.inputs.nearest((v_cmd, a_cmd))]


@dataclass
class NavRuntime:
    """Everything the episode loop needs for one shield configuration, as
    assembled by `parashield.bench.build_runtime`; the atomic safe sets are
    `bank.safes`, and `bank` is None when it was built without one, for an
    unshielded episode."""

    cfg: SensingConfig
    sys: BoxedAbstraction
    layout: ColumnLayout
    bank: AtomicShieldBank | None
    abstraction_seconds: float
    bank_seconds: float    # synthesis


@dataclass
class StepRecord:
    step: int
    x: float
    y: float
    theta: float
    cell: int
    active_count: int
    proposed_v: float
    proposed_a: float
    chosen_v: float
    chosen_a: float
    intervened: bool
    in_domain: bool
    shield_seconds: float
    w1: float
    w2: float
    w3: float


TRACE_FIELDS = [f.name for f in fields(StepRecord)] + ["status"]


@dataclass
class EpisodeTrace:
    mode: str
    seed: int
    status: str = "running"
    steps: list = field(default_factory=list)

    @property
    def interventions(self):
        return sum(1 for s in self.steps if s.intervened)

    @property
    def mean_shield_seconds(self):
        if not self.steps:
            return 0.0
        return float(np.mean([s.shield_seconds for s in self.steps]))

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=TRACE_FIELDS)
            w.writeheader()
            for s in self.steps:
                row = {k: getattr(s, k) for k in TRACE_FIELDS if k != "status"}
                row["status"] = self.status
                w.writerow(row)


def _collides(world: WorldMap, x, y):
    for ob in world.obstacles:
        if ob[0] <= x <= ob[2] and ob[1] <= y <= ob[3]:
            return True
    return False


def _in_goal(world: WorldMap, x, y):
    g = world.goal
    return g[0] <= x <= g[2] and g[1] <= y <= g[3]


MODES = ("dynamic", "pure-online", "unshielded")


def run_episode(world: WorldMap, rt: NavRuntime, mode="dynamic", seed=0,
                max_steps=200) -> EpisodeTrace:
    """Sense, adapt the shield, propose, override, move; repeat to termination.

    Only the shield-update stage (composition, or from-scratch synthesis for
    the pure-online baseline) is timed.  Disturbances are drawn uniformly from
    the disturbance box with a generator seeded per episode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    cfg = rt.cfg
    rng = np.random.default_rng(seed)
    trace = EpisodeTrace(mode=mode, seed=seed)
    pose = tuple(float(v) for v in world.start)
    for step in range(max_steps):
        snap = sense(world, pose, cfg, rt.layout)
        shield = None
        dt = 0.0
        if mode == "dynamic":
            t0 = time.perf_counter()
            shield = compose(rt.bank, snap.active)
            dt = time.perf_counter() - t0
        elif mode == "pure-online":
            sets = [rt.bank.safes[i] for i in snap.active]
            t0 = time.perf_counter()
            shield = pure_online_shield(rt.sys, sets)
            dt = time.perf_counter() - t0

        proposed = scripted_controller(pose, world.goal, cfg)
        cell = frame_cell(pose, cfg.grid)
        if shield is not None:
            try:
                decision = shield_apply(shield, cell, proposed)
            except DomainViolation:    # outside the domain, or a blocking state
                trace.steps.append(StepRecord(
                    step, pose[0], pose[1], pose[2], cell, len(snap.active),
                    float(proposed[0]), float(proposed[1]), float("nan"), float("nan"),
                    False, False, dt, 0.0, 0.0, 0.0))
                trace.status = "domain-violation"
                return trace
            chosen = decision.u
            intervened = decision.intervened
        else:
            chosen = proposed
            intervened = False

        w = cfg.params.disturbance.sample(rng)
        nxt = dubins_step(pose, chosen, w, cfg.params)
        trace.steps.append(StepRecord(
            step, pose[0], pose[1], pose[2], cell, len(snap.active),
            float(proposed[0]), float(proposed[1]), float(chosen[0]), float(chosen[1]),
            intervened, True, dt, float(w[0]), float(w[1]), float(w[2])))
        pose = nxt
        if _collides(world, pose[0], pose[1]):
            trace.status = "collision"
            return trace
        if _in_goal(world, pose[0], pose[1]):
            trace.status = "goal-reached"
            return trace
    trace.status = "max-steps"
    return trace


def check_handover(trace: EpisodeTrace) -> bool:
    """Every post-move cell was inside the next shield's domain.

    The per-step in_domain flag records exactly that membership check, so the
    handover property holds iff all flags are set and the episode never ended
    in a domain violation.  Unshielded traces pass vacuously.
    """
    if trace.mode == "unshielded":
        return True
    if trace.status == "domain-violation":
        return False
    return all(s.in_domain for s in trace.steps)


@dataclass
class WorldParams:
    """Knobs of the random reach-avoid instance generator."""

    bounds: tuple = (0.0, 0.0, 3.0, 3.0)
    n_obstacles: tuple = (2, 5)
    obstacle_size: tuple = (0.25, 0.8)
    clearance: float = 0.12
    goal_size: float = 0.3
    min_start_goal_dist: float = 1.2
    corridor_res: float = 0.1
    max_tries: int = 200


def _point_rect_dist(x, y, rect):
    dx = max(rect[0] - x, 0.0, x - rect[2])
    dy = max(rect[1] - y, 0.0, y - rect[3])
    return float(np.hypot(dx, dy))


def _corridor_exists(bounds, obstacles, start, goal_c, res):
    # coarse occupancy grid; obstacles inflated by one cell so a found path
    # implies a corridor at least three cells wide
    x0, y0, x1, y1 = bounds
    nx = max(int(np.ceil((x1 - x0) / res)), 1)
    ny = max(int(np.ceil((y1 - y0) / res)), 1)
    occ = np.zeros((nx, ny), dtype=bool)
    for ob in obstacles:
        ax = max(int(np.floor((ob[0] - x0) / res)) - 1, 0)
        bx = min(int(np.floor((ob[2] - x0) / res)) + 1, nx - 1)
        ay = max(int(np.floor((ob[1] - y0) / res)) - 1, 0)
        by = min(int(np.floor((ob[3] - y0) / res)) + 1, ny - 1)
        occ[ax:bx + 1, ay:by + 1] = True
    si = (min(int((start[0] - x0) / res), nx - 1), min(int((start[1] - y0) / res), ny - 1))
    gi = (min(int((goal_c[0] - x0) / res), nx - 1), min(int((goal_c[1] - y0) / res), ny - 1))
    if occ[si] or occ[gi]:
        return False
    seen = np.zeros_like(occ)
    seen[si] = True
    q = deque([si])
    while q:
        cx, cy = q.popleft()
        if (cx, cy) == gi:
            return True
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            mx, my = cx + dx, cy + dy
            if 0 <= mx < nx and 0 <= my < ny and not occ[mx, my] and not seen[mx, my]:
                seen[mx, my] = True
                q.append((mx, my))
    return False


def random_world(seed, params: WorldParams = WorldParams()) -> WorldMap:
    """Rejection-sample a reach-avoid instance; deterministic per seed."""
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = params.bounds
    for _ in range(params.max_tries):
        k = int(rng.integers(params.n_obstacles[0], params.n_obstacles[1] + 1))
        obstacles = []
        for _ in range(k):
            w, h = rng.uniform(params.obstacle_size[0], params.obstacle_size[1], 2)
            ox = rng.uniform(x0, x1 - w)
            oy = rng.uniform(y0, y1 - h)
            obstacles.append((float(ox), float(oy), float(ox + w), float(oy + h)))
        margin = 0.2
        sx = float(rng.uniform(x0 + margin, x1 - margin))
        sy = float(rng.uniform(y0 + margin, y1 - margin))
        st = float(rng.uniform(-np.pi, np.pi))
        g = params.goal_size / 2.0
        gx = float(rng.uniform(x0 + margin + g, x1 - margin - g))
        gy = float(rng.uniform(y0 + margin + g, y1 - margin - g))
        goal = (gx - g, gy - g, gx + g, gy + g)
        if np.hypot(gx - sx, gy - sy) < params.min_start_goal_dist:
            continue
        if any(_point_rect_dist(sx, sy, ob) < params.clearance for ob in obstacles):
            continue
        c = params.clearance
        if any(not (ob[2] + c < goal[0] or goal[2] + c < ob[0] or
                    ob[3] + c < goal[1] or goal[3] + c < ob[1]) for ob in obstacles):
            continue
        if not _corridor_exists(params.bounds, obstacles, (sx, sy), (gx, gy), params.corridor_res):
            continue
        return WorldMap(params.bounds, obstacles, goal, (sx, sy, st))
    raise GenerationFailed(f"no feasible world after {params.max_tries} attempts (seed {seed})")


def start_feasible(world: WorldMap, rt: NavRuntime) -> bool:
    """True when the initial pose's cell lies in the initial shield's domain.

    Random worlds can wedge the start into a pocket from which safety is not
    enforceable at the chosen grid; such reach-avoid instances are discarded
    by the harness rather than run.
    """
    snap = sense(world, world.start, rt.cfg, rt.layout)
    shield = compose(rt.bank, snap.active)
    return bool(shield.table.defined[frame_cell(world.start, rt.cfg.grid)])


_WORLD_ATTEMPTS = 25    # seeds `feasible_world` draws before it gives up


def feasible_world(rt: NavRuntime, seed, params: WorldParams = WorldParams()) -> WorldMap:
    """Deterministic world draw, re-rolling seeds until the start is feasible."""
    for k in range(_WORLD_ATTEMPTS):
        world = random_world(seed + 7919 * k, params)
        if start_feasible(world, rt):
            return world
    raise GenerationFailed(f"no feasible instance near seed {seed}")
