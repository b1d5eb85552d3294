//! Multiple-choice knapsack: the combinatorial structure of the WD ILP.
//!
//! Pick exactly one item from each group, total weight ≤ capacity, minimize
//! total cost. [`MckInstance::solve`] is the production solver: a branch
//! and bound whose nodes restrict each group to a range of its items,
//! bounded by the LP relaxation, which a greedy pass over each group's
//! convex hull solves exactly (Sinha & Zoltners, 1979). Two oracles check
//! it: [`MckInstance::solve_exhaustive`] enumerates every assignment under
//! the same tie rule, and [`MckInstance::to_ilp`] phrases the instance as
//! the paper's 0-1 ILP (Equations 1–4) for [`crate::ilp::solve_binary`].

use crate::ilp::IlpProblem;
use crate::simplex::{Cmp, Constraint, LpProblem};
use std::cmp::Ordering;

/// One candidate item: `(cost, weight)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Cost to minimize (execution time in the WD instance).
    pub cost: f64,
    /// Weight consumed (workspace bytes in the WD instance).
    pub weight: f64,
}

/// A multiple-choice knapsack instance.
#[derive(Debug, Clone)]
pub struct MckInstance {
    /// Item groups; exactly one item per group must be chosen.
    pub groups: Vec<Vec<Item>>,
    /// Total weight budget.
    pub capacity: f64,
}

/// An optimal assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct MckSolution {
    /// The chosen item index of each group.
    pub choices: Vec<usize>,
    /// Total cost of the choices, summed in group order.
    pub cost: f64,
    /// Search effort: branch-and-bound nodes over both passes of
    /// [`MckInstance::solve`], or assignments enumerated by
    /// [`MckInstance::solve_exhaustive`].
    pub nodes: usize,
}

/// Assignments within this cost of the minimum are optimal. It is the
/// integrality tolerance of the simplex branch and bound ([`crate::ilp`]).
const COST_TOL: f64 = 1e-6;
/// Slack on the capacity, absorbing rounding in weight sums.
const WEIGHT_TOL: f64 = 1e-9;
/// The first pass prunes a node whose bound cannot beat the incumbent by
/// more than rounding.
const PRUNE_TOL: f64 = 1e-9;

impl MckInstance {
    /// Encode as a 0-1 ILP (Equations 1–4 of the paper): one binary per
    /// item, one equality per group, one knapsack row. The group equalities
    /// imply the binary upper bounds, so they are omitted from the tableau.
    pub fn to_ilp(&self) -> IlpProblem {
        let num_vars: usize = self.groups.iter().map(Vec::len).sum();
        let mut objective = Vec::with_capacity(num_vars);
        let mut constraints = Vec::with_capacity(self.groups.len() + 1);
        let mut knapsack = Vec::new();
        let mut idx = 0usize;
        for group in &self.groups {
            assert!(!group.is_empty(), "every group needs at least one item");
            let mut row = Vec::with_capacity(group.len());
            for item in group {
                objective.push(item.cost);
                if item.weight != 0.0 {
                    knapsack.push((idx, item.weight));
                }
                row.push((idx, 1.0));
                idx += 1;
            }
            constraints.push(Constraint {
                coeffs: row,
                cmp: Cmp::Eq,
                rhs: 1.0,
            });
        }
        constraints.push(Constraint {
            coeffs: knapsack,
            cmp: Cmp::Le,
            rhs: self.capacity,
        });
        IlpProblem {
            lp: LpProblem {
                num_vars,
                objective,
                constraints,
            },
            add_binary_bounds: false,
        }
    }

    /// Decode a binary assignment of [`MckInstance::to_ilp`] into per-group
    /// choices.
    pub fn choices_from(&self, x: &[bool]) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.groups.len());
        let mut idx = 0usize;
        for group in &self.groups {
            let chosen = (0..group.len())
                .find(|j| x[idx + *j])
                .expect("exactly one item per group must be selected");
            out.push(chosen);
            idx += group.len();
        }
        out
    }

    /// Solve exactly; `None` when no assignment fits the capacity or a
    /// group is empty. Costs and weights must be finite.
    ///
    /// Which optimum is returned follows one tie rule, so that a plan does
    /// not depend on the order of the search:
    /// 1. an assignment is optimal when it fits and costs at most 1e-6 more
    ///    than the minimum;
    /// 2. among optimal assignments, the one with the largest weight in the
    ///    first group wins, then in the second group, and so on, in group
    ///    order;
    /// 3. among items of one group with equal weights, the cheaper wins, and
    ///    among items equal in weight and cost, the lower index.
    ///
    /// The rule matches the choices of the simplex branch and bound on the
    /// paper's formulation ([`MckInstance::to_ilp`]) on the WD plans of
    /// AlexNet, ResNet-50 and DenseNet-40 (`ablation_ilp`). On synthetic
    /// instances full of equal costs the simplex's pick among optima follows
    /// its pivoting and often differs, so there only the optimum is compared.
    ///
    /// Each group's items are sorted by weight, and an item is dropped when
    /// its group has a lighter item more than 1e-6 cheaper, or one of equal
    /// weight that comes first under rule 3. A depth-first branch and bound
    /// then searches over per-group item ranges. Each node is bounded by its
    /// LP relaxation, solved greedily on the lower convex hull of each
    /// group's range, and splits the range of the group that the relaxation
    /// leaves fractional. Rounding the fractional group down, then filling
    /// the remaining capacity greedily, gives every node a feasible
    /// assignment. The first pass finds the minimum cost. The second fixes
    /// the groups in order, each to its heaviest item that still completes
    /// an optimal assignment.
    pub fn solve(&self) -> Option<MckSolution> {
        let mut search = Search::new(self)?;
        search.run(Goal::Minimize);
        if search.best_cost == f64::INFINITY {
            return None;
        }
        let limit = search.best_cost + COST_TOL;
        for g in 0..search.range.len() {
            let last = search.range[g].1;
            while search.best[g] < last {
                search.range[g] = (search.best[g] + 1, last);
                if !search.run(Goal::Reach(limit)) {
                    break;
                }
            }
            search.range[g] = (search.best[g], search.best[g]);
        }
        let choices: Vec<usize> = search.best.iter().map(|&p| search.items[p].2).collect();
        Some(MckSolution {
            cost: self.cost_of(&choices),
            choices,
            nodes: search.nodes,
        })
    }

    /// Exhaustive exact solver under the tie rule of [`MckInstance::solve`]:
    /// O(∏ |group|), only for testing and small ablations.
    pub fn solve_exhaustive(&self) -> Option<MckSolution> {
        if self.groups.iter().any(Vec::is_empty) {
            return None;
        }
        let capacity = self.capacity + WEIGHT_TOL;
        let fits = |choice: &[usize]| {
            let weight: f64 = self
                .groups
                .iter()
                .zip(choice)
                .map(|(g, &j)| g[j].weight)
                .sum();
            weight <= capacity
        };
        let mut nodes = 0usize;
        let mut min = f64::INFINITY;
        self.for_each_assignment(|choice| {
            nodes += 1;
            if fits(choice) {
                min = min.min(self.cost_of(choice));
            }
        });
        if min == f64::INFINITY {
            return None;
        }
        let mut best: Option<Vec<usize>> = None;
        self.for_each_assignment(|choice| {
            if fits(choice)
                && self.cost_of(choice) <= min + COST_TOL
                && best
                    .as_ref()
                    .is_none_or(|b| self.prefer(choice, b) == Ordering::Less)
            {
                best = Some(choice.to_vec());
            }
        });
        let choices = best.expect("the minimum is attained");
        Some(MckSolution {
            cost: self.cost_of(&choices),
            choices,
            nodes,
        })
    }

    /// Total cost of an assignment, summed in group order.
    fn cost_of(&self, choices: &[usize]) -> f64 {
        self.groups
            .iter()
            .zip(choices)
            .map(|(g, &j)| g[j].cost)
            .sum()
    }

    /// Rules 2 and 3 of the tie rule: `Less` when assignment `a` wins.
    fn prefer(&self, a: &[usize], b: &[usize]) -> Ordering {
        self.groups
            .iter()
            .zip(a.iter().zip(b))
            .map(|(g, (&i, &j))| {
                g[j].weight
                    .total_cmp(&g[i].weight)
                    .then(g[i].cost.total_cmp(&g[j].cost))
                    .then(i.cmp(&j))
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Call `f` on every assignment, the first group varying fastest.
    fn for_each_assignment(&self, mut f: impl FnMut(&[usize])) {
        let mut choice = vec![0usize; self.groups.len()];
        loop {
            f(&choice);
            let mut k = 0;
            loop {
                if k == self.groups.len() {
                    return;
                }
                choice[k] += 1;
                if choice[k] < self.groups[k].len() {
                    break;
                }
                choice[k] = 0;
                k += 1;
            }
        }
    }
}

/// What a branch-and-bound run looks for.
#[derive(Clone, Copy)]
enum Goal {
    /// Lower the incumbent to the minimum cost.
    Minimize,
    /// Find an assignment that costs at most this much.
    Reach(f64),
}

/// One entry of the depth-first trail.
#[derive(Clone, Copy)]
enum Step {
    /// Bound the node given by the current ranges; branch or prune it.
    Visit,
    /// Set a group's range (entering a child, or restoring the parent's).
    Set(usize, (usize, usize)),
}

/// A descending edge of a group's lower hull: moving the group from item
/// `from` to item `to` (positions in [`Search::items`]) changes the cost by
/// `slope` per unit of weight.
#[derive(Clone, Copy)]
struct Segment {
    slope: f64,
    group: usize,
    from: usize,
    to: usize,
}

/// A node's LP relaxation.
struct Relaxation {
    /// Its optimum: a lower bound on every assignment within the ranges.
    bound: f64,
    /// The fractional group, the position of its lighter hull item, and the
    /// fraction of the way to the heavier one; `None` when integral.
    split: Option<(usize, usize, f64)>,
}

/// Branch-and-bound state: the kept items and the current node's ranges.
struct Search {
    /// The kept items of every group in ascending weight: `(weight, cost,
    /// index in the group)`.
    items: Vec<(f64, f64, usize)>,
    /// Per group, the inclusive range of positions in `items` the current
    /// node allows.
    range: Vec<(usize, usize)>,
    /// Capacity plus [`WEIGHT_TOL`].
    capacity: f64,
    /// The latest relaxation's rounded assignment: one position per group.
    pick: Vec<usize>,
    /// The incumbent: the minimum so far in the first pass, the latest
    /// optimal assignment found in the second.
    best: Vec<usize>,
    /// Cost of the first pass's incumbent.
    best_cost: f64,
    /// Nodes bounded so far.
    nodes: usize,
    segments: Vec<Segment>,
    hull: Vec<usize>,
    trail: Vec<Step>,
}

impl Search {
    /// Sort and prune every group; `None` when a group is empty.
    fn new(inst: &MckInstance) -> Option<Search> {
        let mut items = Vec::with_capacity(inst.groups.iter().map(Vec::len).sum());
        let mut range = Vec::with_capacity(inst.groups.len());
        let mut order: Vec<usize> = Vec::new();
        for group in &inst.groups {
            order.clear();
            order.extend(0..group.len());
            // Stable, so equal items keep index order (rule 3).
            order.sort_by(|&a, &b| {
                group[a]
                    .weight
                    .total_cmp(&group[b].weight)
                    .then(group[a].cost.total_cmp(&group[b].cost))
            });
            let first = items.len();
            // The cheapest cost among strictly lighter items.
            let mut cheapest = f64::INFINITY;
            let mut last_weight = None;
            for &j in &order {
                let Item { cost, weight } = group[j];
                if last_weight == Some(weight) {
                    continue;
                }
                last_weight = Some(weight);
                if cost - COST_TOL <= cheapest {
                    items.push((weight, cost, j));
                }
                cheapest = cheapest.min(cost);
            }
            if items.len() == first {
                return None;
            }
            range.push((first, items.len() - 1));
        }
        let groups = range.len();
        Some(Search {
            items,
            range,
            capacity: inst.capacity + WEIGHT_TOL,
            pick: vec![0; groups],
            best: vec![0; groups],
            best_cost: f64::INFINITY,
            nodes: 0,
            segments: Vec::new(),
            hull: Vec::new(),
            trail: Vec::new(),
        })
    }

    /// Depth-first branch and bound below the current ranges, which it
    /// leaves as it found them. Returns whether a [`Goal::Reach`] run found
    /// its assignment; it is then in `best`.
    fn run(&mut self, goal: Goal) -> bool {
        self.trail.clear();
        self.trail.push(Step::Visit);
        while let Some(step) = self.trail.pop() {
            if let Step::Set(g, r) = step {
                self.range[g] = r;
                continue;
            }
            let Some(lp) = self.relax() else { continue };
            let cost: f64 = self.pick.iter().map(|&p| self.items[p].1).sum();
            let cut = match goal {
                Goal::Minimize => {
                    if cost < self.best_cost {
                        self.best_cost = cost;
                        self.best.copy_from_slice(&self.pick);
                    }
                    lp.bound >= self.best_cost - PRUNE_TOL
                }
                Goal::Reach(limit) => {
                    if cost <= limit {
                        self.best.copy_from_slice(&self.pick);
                        while let Some(step) = self.trail.pop() {
                            if let Step::Set(g, r) = step {
                                self.range[g] = r;
                            }
                        }
                        return true;
                    }
                    lp.bound > limit
                }
            };
            let Some((g, from, fraction)) = lp.split.filter(|_| !cut) else {
                continue;
            };
            let parent = self.range[g];
            let (down, up) = ((parent.0, from), (from + 1, parent.1));
            // Explore the child nearer the relaxation first.
            let (first, second) = if fraction >= 0.5 {
                (up, down)
            } else {
                (down, up)
            };
            self.trail.extend([
                Step::Set(g, parent),
                Step::Visit,
                Step::Set(g, second),
                Step::Visit,
                Step::Set(g, first),
            ]);
        }
        false
    }

    /// Solve the current node's LP relaxation and leave its rounded
    /// assignment in `pick`; `None` when even the lightest items overflow.
    fn relax(&mut self) -> Option<Relaxation> {
        self.nodes += 1;
        self.segments.clear();
        let items = &self.items;
        let mut weight = 0.0;
        let mut bound = 0.0;
        for (g, &(lo, hi)) in self.range.iter().enumerate() {
            weight += items[lo].0;
            bound += items[lo].1;
            self.pick[g] = lo;
            // Lower convex hull of the range (monotone chain); only its
            // descending edges can pay for their weight.
            self.hull.clear();
            for p in lo..=hi {
                while let [.., a, b] = self.hull[..] {
                    let (a, b, c) = (items[a], items[b], items[p]);
                    if (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0) > 0.0 {
                        break;
                    }
                    self.hull.pop();
                }
                self.hull.push(p);
            }
            for edge in self.hull.windows(2) {
                let (from, to) = (edge[0], edge[1]);
                let slope = (items[to].1 - items[from].1) / (items[to].0 - items[from].0);
                if slope >= 0.0 {
                    break;
                }
                self.segments.push(Segment {
                    slope,
                    group: g,
                    from,
                    to,
                });
            }
        }
        if weight > self.capacity {
            return None;
        }
        // Steepest first; a group's edges are in hull order, their slopes
        // ascending, so the greedy walks each hull from its light end.
        self.segments
            .sort_unstable_by(|a, b| a.slope.total_cmp(&b.slope).then(a.group.cmp(&b.group)));
        let mut room = self.capacity - weight;
        let mut split = None;
        let mut rest = self.segments.len();
        for (k, s) in self.segments.iter().enumerate() {
            let dw = items[s.to].0 - items[s.from].0;
            if dw > room {
                if room > 0.0 {
                    let fraction = room / dw;
                    bound += (items[s.to].1 - items[s.from].1) * fraction;
                    split = Some((s.group, s.from, fraction));
                }
                rest = k + 1;
                break;
            }
            room -= dw;
            bound += items[s.to].1 - items[s.from].1;
            self.pick[s.group] = s.to;
        }
        // Round down: fill what room is left with whole edges that still
        // start where their group stands.
        for s in &self.segments[rest..] {
            let dw = items[s.to].0 - items[s.from].0;
            if self.pick[s.group] == s.from && dw <= room {
                room -= dw;
                self.pick[s.group] = s.to;
            }
        }
        Some(Relaxation { bound, split })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(cost: f64, weight: f64) -> Item {
        Item { cost, weight }
    }

    #[test]
    fn solve_matches_exhaustive_on_fixed_instance() {
        let inst = MckInstance {
            groups: vec![
                vec![item(10.0, 0.0), item(4.0, 5.0), item(2.0, 9.0)],
                vec![item(8.0, 0.0), item(3.0, 4.0)],
                vec![item(6.0, 0.0), item(1.0, 7.0)],
            ],
            capacity: 12.0,
        };
        let bb = inst.solve().unwrap();
        let ex = inst.solve_exhaustive().unwrap();
        assert_eq!(bb.choices, ex.choices);
        assert!(
            (bb.cost - ex.cost).abs() < 1e-9,
            "{} vs {}",
            bb.cost,
            ex.cost
        );
        assert!(bb.nodes >= 1);
        assert_eq!(ex.nodes, 12);
    }

    #[test]
    fn zero_capacity_forces_zero_weight_items() {
        let inst = MckInstance {
            groups: vec![vec![item(9.0, 0.0), item(1.0, 1.0)]],
            capacity: 0.0,
        };
        let sol = inst.solve().unwrap();
        assert_eq!(sol.choices, vec![0]);
        assert!((sol.cost - 9.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_no_combination_fits() {
        let inst = MckInstance {
            groups: vec![vec![item(1.0, 5.0)], vec![item(1.0, 5.0)]],
            capacity: 7.0,
        };
        assert!(inst.solve().is_none());
        assert!(inst.solve_exhaustive().is_none());
    }

    #[test]
    fn an_empty_group_is_infeasible_and_no_group_is_free() {
        let empty = MckInstance {
            groups: vec![vec![item(1.0, 0.0)], vec![]],
            capacity: 1.0,
        };
        assert!(empty.solve().is_none());
        assert!(empty.solve_exhaustive().is_none());
        let none = MckInstance {
            groups: vec![],
            capacity: 0.0,
        };
        assert_eq!(none.solve().unwrap().choices, Vec::<usize>::new());
        assert_eq!(none.solve_exhaustive().unwrap().cost, 0.0);
    }

    #[test]
    fn ties_go_to_the_heavier_item_of_the_earlier_group() {
        // Two identical groups and room for one upgrade: the first group
        // takes it.
        let group = vec![item(10.0, 0.0), item(4.0, 6.0)];
        let inst = MckInstance {
            groups: vec![group.clone(), group],
            capacity: 8.0,
        };
        assert_eq!(inst.solve().unwrap().choices, vec![1, 0]);
        assert_eq!(inst.solve_exhaustive().unwrap().choices, vec![1, 0]);
    }

    #[test]
    fn equal_costs_prefer_the_heavier_item_that_fits() {
        // A bigger share at the same cost is taken when the budget allows.
        let inst = MckInstance {
            groups: vec![vec![item(5.0, 1.0), item(5.0, 3.0), item(5.0, 9.0)]],
            capacity: 4.0,
        };
        assert_eq!(inst.solve().unwrap().choices, vec![1]);
        assert_eq!(inst.solve_exhaustive().unwrap().choices, vec![1]);
    }

    #[test]
    fn duplicate_items_resolve_to_the_lowest_index() {
        let inst = MckInstance {
            groups: vec![vec![item(7.0, 2.0), item(3.0, 4.0), item(3.0, 4.0)]],
            capacity: 4.0,
        };
        assert_eq!(inst.solve().unwrap().choices, vec![1]);
        assert_eq!(inst.solve_exhaustive().unwrap().choices, vec![1]);
    }

    #[test]
    fn costs_within_the_tolerance_count_as_optimal() {
        // The heavier item costs 5e-7 more: still optimal, and heavier.
        let inst = MckInstance {
            groups: vec![vec![item(3.0, 1.0), item(3.0 + 5e-7, 2.0)]],
            capacity: 2.0,
        };
        assert_eq!(inst.solve().unwrap().choices, vec![1]);
        assert_eq!(inst.solve_exhaustive().unwrap().choices, vec![1]);
        // At 2e-6 more it is dominated.
        let inst = MckInstance {
            groups: vec![vec![item(3.0, 1.0), item(3.0 + 2e-6, 2.0)]],
            capacity: 2.0,
        };
        assert_eq!(inst.solve().unwrap().choices, vec![0]);
        assert_eq!(inst.solve_exhaustive().unwrap().choices, vec![0]);
    }

    #[test]
    fn objective_matches_the_simplex_oracle() {
        let inst = MckInstance {
            groups: vec![
                vec![item(10.0, 0.0), item(7.0, 3.0), item(2.0, 9.0)],
                vec![item(8.0, 0.0), item(3.0, 4.0), item(1.0, 8.0)],
                vec![item(6.0, 0.0), item(1.0, 7.0)],
            ],
            capacity: 13.0,
        };
        let ilp = crate::ilp::solve_binary(&inst.to_ilp());
        let sol = inst.solve().unwrap();
        assert!((ilp.objective - sol.cost).abs() < 1e-6);
        assert_eq!(inst.choices_from(&ilp.x), sol.choices);
    }
}
