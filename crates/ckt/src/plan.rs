//! Solver structure hints: block partitions and shared analysis state.
//!
//! Two pieces of setup-time machinery that let the Newton engine exploit
//! what the circuit *builder* knows:
//!
//! - [`BlockPlan`] — a bordered-block-diagonal partition hint. An array
//!   constructor knows which nodes belong to which bitline column and
//!   which are shared row lines; it records that here (by node and by
//!   element, for branch unknowns) and the engine turns it into a
//!   [`fefet_numerics::bbd::BlockStructure`] over the MNA unknown
//!   ordering. No graph partitioner runs at solve time.
//! - [`AnalysisCache`] — a shared, thread-safe cache of pristine
//!   analyzed factorizations keyed by sparsity pattern. Parallel sweep
//!   workers solving structurally identical systems (clones of one
//!   array) call [`AnalysisCache::sparse`]/[`AnalysisCache::bbd`] and
//!   get a clone of the one analyzed proto — the symbolic analysis runs
//!   once per pattern per sweep, not once per worker. The build closure
//!   runs under the cache lock, so the "once" is a guarantee, not a
//!   race-prone fast path.

use crate::circuit::Circuit;
use crate::elements::Node;
use crate::engine::Assembly;
use crate::CktError;
use fefet_numerics::bbd::{BbdLu, BlockStructure};
use fefet_numerics::sparse::{CsrPattern, SparseLu};
use std::sync::{Arc, Mutex, MutexGuard};

/// Bordered-block-diagonal partition hint over a circuit's nodes and
/// elements. Unassigned nodes/elements land in the border.
///
/// The plan is expressed in circuit terms (nodes, named elements); the
/// engine maps it onto the MNA unknown ordering (node voltages then
/// branch currents) via [`BlockPlan::block_structure`] when it builds
/// the BBD backend state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockPlan {
    /// Per node index (including ground at 0, which is ignored — ground
    /// is eliminated from the MNA system).
    node_block: Vec<Option<usize>>,
    /// Per element position; covers all of that element's branch
    /// unknowns.
    elem_block: Vec<Option<usize>>,
    n_blocks: usize,
}

impl BlockPlan {
    /// An empty plan (everything border) sized for `ckt` as currently
    /// built. Add elements/nodes to the circuit *before* creating the
    /// plan.
    pub fn for_circuit(ckt: &Circuit) -> Self {
        BlockPlan {
            node_block: vec![None; ckt.n_nodes()],
            elem_block: vec![None; ckt.elements().len()],
            n_blocks: 0,
        }
    }

    /// Assigns a node's voltage unknown to a block. Assigning ground is
    /// a no-op (ground has no unknown). Out-of-range nodes are ignored
    /// — the plan is validated against the assembly when the engine
    /// consumes it.
    pub fn assign_node(&mut self, node: Node, block: usize) {
        let i = node.index();
        if i == 0 {
            return;
        }
        if let Some(slot) = self.node_block.get_mut(i) {
            *slot = Some(block);
            self.n_blocks = self.n_blocks.max(block + 1);
        }
    }

    /// Assigns a named node to a block.
    ///
    /// # Errors
    ///
    /// [`CktError::UnknownSignal`] if the node does not exist.
    pub fn assign_node_name(
        &mut self,
        ckt: &Circuit,
        name: &str,
        block: usize,
    ) -> Result<(), CktError> {
        let node = ckt
            .find_node(name)
            .ok_or_else(|| CktError::UnknownSignal(name.to_string()))?;
        self.assign_node(node, block);
        Ok(())
    }

    /// Assigns a named element's branch unknowns to a block (a no-op
    /// for elements without branches, e.g. resistors).
    ///
    /// # Errors
    ///
    /// [`CktError::UnknownSignal`] if the element does not exist.
    pub fn assign_element(
        &mut self,
        ckt: &Circuit,
        name: &str,
        block: usize,
    ) -> Result<(), CktError> {
        let pos = ckt
            .element_position(name)
            .ok_or_else(|| CktError::UnknownSignal(name.to_string()))?;
        self.assign_element_at(pos, block);
        Ok(())
    }

    /// A plan for `ckt` from `(node, block)` and `(element position,
    /// block)` pairs recorded while the circuit was built — no name
    /// lookups. Out-of-range entries are ignored, as for
    /// [`BlockPlan::assign_node`].
    pub fn from_assignments(
        ckt: &Circuit,
        nodes: impl IntoIterator<Item = (Node, usize)>,
        elements: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let mut plan = BlockPlan::for_circuit(ckt);
        for (node, block) in nodes {
            plan.assign_node(node, block);
        }
        for (pos, block) in elements {
            plan.assign_element_at(pos, block);
        }
        plan
    }

    fn assign_element_at(&mut self, pos: usize, block: usize) {
        if let Some(slot) = self.elem_block.get_mut(pos) {
            *slot = Some(block);
            self.n_blocks = self.n_blocks.max(block + 1);
        }
    }

    /// Number of blocks the plan names (max assigned block + 1).
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Maps the plan onto the MNA unknown ordering of `asm`: node `k`'s
    /// voltage is unknown `k − 1`, element `e`'s branches start at
    /// `n_nodes − 1 + branch0[e]`.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if the plan was built for a different
    /// circuit shape; [`CktError::Numerics`] if the resulting structure
    /// is invalid (e.g. an empty block).
    pub fn block_structure(&self, asm: &Assembly) -> Result<BlockStructure, CktError> {
        if self.node_block.len() != asm.n_nodes || self.elem_block.len() != asm.branch0.len() {
            return Err(CktError::Netlist(format!(
                "block plan built for {} nodes / {} elements, assembly has {} / {}",
                self.node_block.len(),
                self.elem_block.len(),
                asm.n_nodes,
                asm.branch0.len()
            )));
        }
        let nv = asm.n_nodes - 1;
        let mut block_of = vec![None; nv + asm.n_branches];
        for i in 1..asm.n_nodes {
            block_of[i - 1] = self.node_block[i];
        }
        for (e, &b0) in asm.branch0.iter().enumerate() {
            if b0 == usize::MAX {
                continue;
            }
            let end = asm.branch0[e + 1..]
                .iter()
                .copied()
                .find(|&x| x != usize::MAX)
                .unwrap_or(asm.n_branches);
            for br in b0..end {
                block_of[nv + br] = self.elem_block[e];
            }
        }
        BlockStructure::new(self.n_blocks, block_of).map_err(CktError::from)
    }
}

/// Pristine analyzed factorization, never numerically factored: clones
/// hand each worker fresh numeric buffers sharing the `Arc`'d symbolic
/// analysis inside.
#[derive(Debug)]
enum Proto {
    Sparse(SparseLu),
    Bbd(BbdLu),
}

#[derive(Debug)]
struct CacheEntry {
    pattern: CsrPattern,
    /// Structure the BBD proto was analyzed for (`None` for sparse):
    /// a pattern match alone must not hand out a factorization
    /// partitioned for a different circuit.
    structure: Option<BlockStructure>,
    proto: Proto,
}

/// Shared symbolic-analysis cache, cloned by handle (`Arc` inside):
/// every clone sees the same entries, so an array and its per-worker
/// clones share one analysis per pattern.
///
/// Equality is identity (`Arc::ptr_eq`): two caches are equal iff they
/// are the same cache, which is what `SolverOptions` comparison wants.
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    inner: Arc<Mutex<Vec<CacheEntry>>>,
}

impl PartialEq for AnalysisCache {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl AnalysisCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<CacheEntry>> {
        match self.inner.lock() {
            Ok(g) => g,
            // A worker that panicked mid-insert cannot have corrupted
            // the Vec (push is the only mutation); recover and continue.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of cached analyses.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Returns a sparse LU for `pattern`: a clone of the cached proto
    /// when one exists (`hit == true`), otherwise the result of `build`
    /// — which runs **under the cache lock**, so concurrent workers
    /// asking for the same pattern trigger exactly one analysis.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn sparse<E>(
        &self,
        pattern: &CsrPattern,
        build: impl FnOnce() -> Result<SparseLu, E>,
    ) -> Result<(SparseLu, bool), E> {
        let mut g = self.lock();
        for e in g.iter() {
            if let Proto::Sparse(lu) = &e.proto {
                if e.pattern == *pattern {
                    return Ok((lu.clone(), true));
                }
            }
        }
        let proto = build()?;
        g.push(CacheEntry {
            pattern: pattern.clone(),
            structure: None,
            proto: Proto::Sparse(proto.clone()),
        });
        Ok((proto, false))
    }

    /// BBD counterpart of [`AnalysisCache::sparse`]; entries match on
    /// both pattern and block structure.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn bbd<E>(
        &self,
        pattern: &CsrPattern,
        structure: &BlockStructure,
        build: impl FnOnce() -> Result<BbdLu, E>,
    ) -> Result<(BbdLu, bool), E> {
        let mut g = self.lock();
        for e in g.iter() {
            if let Proto::Bbd(lu) = &e.proto {
                if e.pattern == *pattern && e.structure.as_ref() == Some(structure) {
                    return Ok((lu.clone(), true));
                }
            }
        }
        let proto = build()?;
        g.push(CacheEntry {
            pattern: pattern.clone(),
            structure: Some(structure.clone()),
            proto: Proto::Bbd(proto.clone()),
        });
        Ok((proto, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn plan_maps_nodes_and_branches_to_unknowns() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::GND, 1e3);
        let asm = Assembly::new(&c);
        let mut plan = BlockPlan::for_circuit(&c);
        plan.assign_node(b, 0);
        plan.assign_element(&c, "V1", 1).unwrap();
        plan.assign_node(Circuit::GND, 3); // no-op
        assert_eq!(plan.n_blocks(), 2);
        let s = plan.block_structure(&asm).unwrap();
        // Unknowns: v(a)=0, v(b)=1, i(V1)=2.
        assert_eq!(s.n(), 3);
        assert_eq!(s.block_of(0), None);
        assert_eq!(s.block_of(1), Some(0));
        assert_eq!(s.block_of(2), Some(1));
    }

    #[test]
    fn plan_shape_mismatch_is_an_error() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 1e3);
        let plan = BlockPlan::for_circuit(&c);
        let mut c2 = Circuit::new();
        let b = c2.node("b");
        let b2 = c2.node("b2");
        c2.resistor("R1", b, b2, 1e3);
        c2.resistor("R2", b2, Circuit::GND, 1e3);
        let asm2 = Assembly::new(&c2);
        assert!(matches!(
            plan.block_structure(&asm2),
            Err(CktError::Netlist(_))
        ));
    }

    #[test]
    fn plan_unknown_names_are_errors() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 1e3);
        let mut plan = BlockPlan::for_circuit(&c);
        assert!(matches!(
            plan.assign_node_name(&c, "ghost", 0),
            Err(CktError::UnknownSignal(_))
        ));
        assert!(matches!(
            plan.assign_element(&c, "Rghost", 0),
            Err(CktError::UnknownSignal(_))
        ));
        plan.assign_node_name(&c, "a", 0).unwrap();
        assert_eq!(plan.n_blocks(), 1);
    }

    #[test]
    fn cache_builds_once_and_clones_after() {
        let pattern = CsrPattern::from_entries(2, &[(0, 0), (1, 1)]).unwrap();
        let cache = AnalysisCache::new();
        let mut builds = 0;
        for round in 0..3 {
            let (_lu, hit) = cache
                .sparse(&pattern, || {
                    builds += 1;
                    SparseLu::analyze(&pattern)
                })
                .unwrap();
            assert_eq!(hit, round > 0);
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
        // A different pattern is a fresh entry.
        let other = CsrPattern::from_entries(3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        let (_lu, hit) = cache.sparse(&other, || SparseLu::analyze(&other)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_handles_share_entries_and_compare_by_identity() {
        let cache = AnalysisCache::new();
        let handle = cache.clone();
        assert_eq!(cache, handle);
        assert_ne!(cache, AnalysisCache::new());
        let pattern = CsrPattern::from_entries(1, &[(0, 0)]).unwrap();
        cache
            .sparse(&pattern, || SparseLu::analyze(&pattern))
            .unwrap();
        assert_eq!(handle.len(), 1, "clone must see the shared entry");
    }

    #[test]
    fn cache_separates_bbd_by_structure() {
        let pattern = CsrPattern::from_entries(2, &[(0, 0), (1, 1)]).unwrap();
        let s1 = BlockStructure::new(1, vec![Some(0), None]).unwrap();
        let s2 = BlockStructure::new(1, vec![None, Some(0)]).unwrap();
        let cache = AnalysisCache::new();
        let (_b1, hit1) = cache
            .bbd(&pattern, &s1, || BbdLu::analyze(&pattern, &s1))
            .unwrap();
        assert!(!hit1);
        let (_b2, hit2) = cache
            .bbd(&pattern, &s2, || BbdLu::analyze(&pattern, &s2))
            .unwrap();
        assert!(!hit2, "different structure must not hit");
        let (_b3, hit3) = cache
            .bbd(&pattern, &s1, || BbdLu::analyze(&pattern, &s1))
            .unwrap();
        assert!(hit3);
        // Sparse and BBD entries for one pattern coexist.
        let (_lu, hit4) = cache
            .sparse(&pattern, || SparseLu::analyze(&pattern))
            .unwrap();
        assert!(!hit4);
        assert_eq!(cache.len(), 3);
    }
}
