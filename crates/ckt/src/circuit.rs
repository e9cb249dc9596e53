//! Netlist construction with named nodes and named elements.

use crate::elements::{Element, Node};
use crate::error::CktError;
use crate::models::{FeCapParams, MosCard, MosParams};
use crate::waveform::Waveform;
use std::collections::HashMap;

/// A circuit under construction.
///
/// Nodes are created (or looked up) by name with [`Circuit::node`];
/// elements are added with the builder methods, each of which takes a
/// unique element name used later to address recorded currents and
/// energies (`i(NAME)`, energy meters).
///
/// # Panics
///
/// Builder methods panic on malformed input (duplicate element names,
/// non-positive component values) — these are programming errors in the
/// netlist, not runtime conditions.
///
/// # Example
///
/// ```
/// use fefet_ckt::circuit::Circuit;
/// use fefet_ckt::waveform::Waveform;
///
/// let mut c = Circuit::new();
/// let n1 = c.node("in");
/// c.vsource("V1", n1, Circuit::GND, Waveform::dc(1.0));
/// c.resistor("R1", n1, Circuit::GND, 1e3);
/// assert_eq!(c.n_nodes(), 2); // gnd + in
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, usize>,
    elements: Vec<(String, Element)>,
    element_index: HashMap<String, usize>,
    /// Nodes that stand for several identical nodes in parallel, with
    /// their multiplicity (see [`Circuit::set_node_multiplicity`]).
    multiplicities: Vec<(Node, f64)>,
}

impl Circuit {
    /// The ground node (node 0), always present.
    pub const GND: Node = Node(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["gnd".to_string()],
            node_index: HashMap::new(),
            elements: Vec::new(),
            element_index: HashMap::new(),
            multiplicities: Vec::new(),
        };
        c.node_index.insert("gnd".to_string(), 0);
        c
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"gnd"` and `"0"` alias the ground node.
    pub fn node(&mut self, name: &str) -> Node {
        if name == "0" || name == "gnd" {
            return Self::GND;
        }
        if let Some(&i) = self.node_index.get(name) {
            return Node(i);
        }
        let i = self.node_names.len();
        self.node_names.push(name.to_string());
        self.node_index.insert(name.to_string(), i);
        Node(i)
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<Node> {
        if name == "0" || name == "gnd" {
            return Some(Self::GND);
        }
        self.node_index.get(name).copied().map(Node)
    }

    /// Marks `n` as the lumped equivalent of `m` (dimensionless)
    /// identical nodes in parallel: a builder merged `m` identical cells
    /// into one cell with every element scaled by `m` (`m < 1` scales one
    /// cell down to a probe that barely loads its neighbours). Every
    /// element current at such a node is `m` times one original node's,
    /// so the solver stamps the gmin conditioning of all `m` nodes and
    /// judges the KCL residual divided by `m` — the residual each
    /// original node would show. Dividing a node's equation by a constant
    /// leaves the Newton update unchanged, so the division moves only the
    /// convergence test, and only at `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is ground or `m` is not finite and positive.
    pub fn set_node_multiplicity(&mut self, n: Node, m: f64) {
        assert!(n != Self::GND, "ground has no multiplicity");
        assert!(m.is_finite() && m > 0.0, "node multiplicity {m} <= 0");
        self.multiplicities.retain(|(k, _)| *k != n);
        self.multiplicities.push((n, m));
    }

    /// The nodes given a multiplicity by
    /// [`Circuit::set_node_multiplicity`], with that multiplicity.
    pub fn node_multiplicities(&self) -> &[(Node, f64)] {
        &self.multiplicities
    }

    /// Number of nodes including ground.
    pub fn n_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    pub fn node_name(&self, n: Node) -> &str {
        &self.node_names[n.0]
    }

    /// The elements, in insertion order, with their names.
    pub fn elements(&self) -> &[(String, Element)] {
        &self.elements
    }

    /// Looks up an element by name.
    pub fn find_element(&self, name: &str) -> Option<&Element> {
        self.element_index.get(name).map(|&i| &self.elements[i].1)
    }

    /// Position of an element in [`Circuit::elements`] order, by name —
    /// the index used for per-element solver bookkeeping (branch
    /// offsets, probes).
    pub fn element_position(&self, name: &str) -> Option<usize> {
        self.element_index.get(name).copied()
    }

    /// Replaces the parameter set of the MOSFET at element position
    /// `idx` ([`Circuit::element_position`] order), allowing one netlist
    /// to be re-simulated under perturbed device parameters. The
    /// index-based form does no hashing or string formatting on success,
    /// so Monte Carlo trial loops can re-parameterize a cached circuit
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if `idx` is out of range or the element is
    /// not a MOSFET.
    pub fn set_mosfet_params_at(&mut self, idx: usize, params: MosParams) -> Result<(), CktError> {
        match self.elements.get_mut(idx) {
            Some((_, Element::Mosfet { card, .. })) => {
                **card = MosCard::new(params);
                Ok(())
            }
            Some((name, other)) => Err(CktError::Netlist(format!(
                "element {name} is not a MOSFET: {other:?}"
            ))),
            None => Err(CktError::Netlist(format!(
                "element index {idx} out of range"
            ))),
        }
    }

    /// Replaces the parameter set of the FE capacitor at element
    /// position `idx` ([`Circuit::element_position`] order); the initial
    /// polarization is left untouched.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if `idx` is out of range or the element is
    /// not an FE capacitor.
    pub fn set_fecap_params_at(&mut self, idx: usize, params: FeCapParams) -> Result<(), CktError> {
        match self.elements.get_mut(idx) {
            Some((_, Element::FeCap { params: p, .. })) => {
                *p = params;
                Ok(())
            }
            Some((name, other)) => Err(CktError::Netlist(format!(
                "element {name} is not an FE capacitor: {other:?}"
            ))),
            None => Err(CktError::Netlist(format!(
                "element index {idx} out of range"
            ))),
        }
    }

    fn push(&mut self, name: &str, e: Element) -> &mut Self {
        assert!(
            !self.element_index.contains_key(name),
            "duplicate element name: {name}"
        );
        self.element_index
            .insert(name.to_string(), self.elements.len());
        self.elements.push((name.to_string(), e));
        self
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms <= 0` or the name is a duplicate.
    pub fn resistor(&mut self, name: &str, a: Node, b: Node, ohms: f64) -> &mut Self {
        assert!(ohms > 0.0, "resistor {name}: ohms must be positive");
        self.push(name, Element::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads <= 0` or the name is a duplicate.
    pub fn capacitor(&mut self, name: &str, a: Node, b: Node, farads: f64) -> &mut Self {
        assert!(farads > 0.0, "capacitor {name}: farads must be positive");
        self.push(name, Element::Capacitor { a, b, farads })
    }

    /// Adds an inductor of `henries` (H).
    ///
    /// # Panics
    ///
    /// Panics if `henries <= 0` or the name is a duplicate.
    pub fn inductor(&mut self, name: &str, a: Node, b: Node, henries: f64) -> &mut Self {
        assert!(henries > 0.0, "inductor {name}: henries must be positive");
        self.push(name, Element::Inductor { a, b, henries })
    }

    /// Adds an independent voltage source (positive terminal `a`).
    pub fn vsource(&mut self, name: &str, a: Node, b: Node, wave: Waveform) -> &mut Self {
        self.validate_wave(name, &wave);
        self.push(name, Element::VSource { a, b, wave })
    }

    /// Adds an independent current source (current from `a` to `b`
    /// through the source).
    pub fn isource(&mut self, name: &str, a: Node, b: Node, wave: Waveform) -> &mut Self {
        self.validate_wave(name, &wave);
        self.push(name, Element::ISource { a, b, wave })
    }

    /// Adds a voltage-controlled voltage source with `gain` (V/V).
    pub fn vcvs(
        &mut self,
        name: &str,
        p: Node,
        n: Node,
        cp: Node,
        cn: Node,
        gain: f64,
    ) -> &mut Self {
        self.push(name, Element::Vcvs { p, n, cp, cn, gain })
    }

    /// Adds a voltage-controlled current source with transconductance
    /// `gm` (A/V).
    pub fn vccs(&mut self, name: &str, p: Node, n: Node, cp: Node, cn: Node, gm: f64) -> &mut Self {
        self.push(name, Element::Vccs { p, n, cp, cn, gm })
    }

    /// Adds a time-controlled switch (closed while `ctrl(t) > 0.5`)
    /// with on/off resistances `r_on` and `r_off` (Ω).
    ///
    /// # Panics
    ///
    /// Panics if resistances are non-positive or `r_on >= r_off`.
    pub fn switch(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        ctrl: Waveform,
        r_on: f64,
        r_off: f64,
    ) -> &mut Self {
        assert!(
            r_on > 0.0 && r_off > r_on,
            "switch {name}: need 0 < r_on < r_off"
        );
        self.push(
            name,
            Element::Switch {
                a,
                b,
                ctrl,
                r_on,
                r_off,
            },
        )
    }

    /// Adds a junction diode (anode `a`) with saturation current
    /// `i_sat` (A) and dimensionless ideality factor `n_ideality`.
    ///
    /// # Panics
    ///
    /// Panics if `i_sat <= 0` or `n_ideality <= 0`.
    pub fn diode(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        i_sat: f64,
        n_ideality: f64,
    ) -> &mut Self {
        assert!(i_sat > 0.0, "diode {name}: i_sat must be positive");
        assert!(n_ideality > 0.0, "diode {name}: ideality must be positive");
        self.push(
            name,
            Element::Diode {
                a,
                b,
                i_sat,
                n_ideality,
            },
        )
    }

    /// Adds a MOSFET (bulk tied to source).
    pub fn mosfet(
        &mut self,
        name: &str,
        d: Node,
        g: Node,
        s: Node,
        params: MosParams,
    ) -> &mut Self {
        assert!(
            params.w > 0.0 && params.l > 0.0,
            "mosfet {name}: bad geometry"
        );
        self.push(
            name,
            Element::Mosfet {
                d,
                g,
                s,
                card: Box::new(MosCard::new(params)),
            },
        )
    }

    /// Adds a ferroelectric capacitor with initial polarization `p0`
    /// (C/m²); positive `p0` means positive charge on terminal `a`.
    pub fn fecap(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        params: FeCapParams,
        p0: f64,
    ) -> &mut Self {
        assert!(
            params.thickness > 0.0 && params.area > 0.0,
            "fecap {name}: bad geometry"
        );
        assert!(params.lk.rho > 0.0, "fecap {name}: rho must be positive");
        self.push(name, Element::FeCap { a, b, params, p0 })
    }

    fn validate_wave(&self, name: &str, wave: &Waveform) {
        if let Waveform::Pwl(pts) = wave {
            assert!(
                pts.windows(2).all(|w| w[1].0 >= w[0].0),
                "source {name}: PWL times must be non-decreasing"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_deduplicated() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.n_nodes(), 2);
        assert_eq!(c.node_name(a), "a");
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("gnd"), Circuit::GND);
        assert_eq!(c.node("0"), Circuit::GND);
        assert_eq!(c.find_node("0"), Some(Circuit::GND));
        assert_eq!(c.n_nodes(), 1);
    }

    #[test]
    fn find_element_and_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 10.0);
        assert!(c.find_element("R1").is_some());
        assert!(c.find_element("R2").is_none());
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("zzz"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate element name")]
    fn duplicate_element_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 10.0);
        c.resistor("R1", a, Circuit::GND, 20.0);
    }

    #[test]
    #[should_panic(expected = "ohms must be positive")]
    fn negative_resistance_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, -1.0);
    }

    #[test]
    #[should_panic(expected = "PWL times must be non-decreasing")]
    fn unsorted_pwl_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(
            "V1",
            a,
            Circuit::GND,
            Waveform::pwl(vec![(1.0, 0.0), (0.5, 1.0)]),
        );
    }

    #[test]
    fn set_device_params_updates_in_place() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.mosfet("M1", a, a, Circuit::GND, MosParams::nmos_45nm());
        c.fecap("F1", a, Circuit::GND, FeCapParams::new(2.25e-9, 1e-15), 0.1);

        let mut mos = MosParams::nmos_45nm();
        mos.vt0 += 0.123;
        let m1 = c.element_position("M1").unwrap();
        c.set_mosfet_params_at(m1, mos).unwrap();
        match c.find_element("M1").unwrap() {
            Element::Mosfet { card, .. } => assert_eq!(**card, MosCard::new(mos)),
            _ => panic!(),
        }

        let fe = FeCapParams::new(2.5e-9, 2e-15);
        let idx = c.element_position("F1").unwrap();
        c.set_fecap_params_at(idx, fe).unwrap();
        match c.find_element("F1").unwrap() {
            Element::FeCap { params, p0, .. } => {
                assert!((params.thickness - 2.5e-9).abs() < 1e-18);
                // p0 untouched by a params swap.
                assert!((p0 - 0.1).abs() < 1e-15);
            }
            _ => panic!(),
        }

        // Kind and range validation.
        assert!(matches!(
            c.set_mosfet_params_at(idx, mos),
            Err(CktError::Netlist(_))
        ));
        assert!(matches!(
            c.set_mosfet_params_at(99, mos),
            Err(CktError::Netlist(_))
        ));
        assert!(matches!(
            c.set_fecap_params_at(99, fe),
            Err(CktError::Netlist(_))
        ));
    }

    #[test]
    #[should_panic(expected = "need 0 < r_on < r_off")]
    fn switch_bad_resistances_panic() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.switch("S1", a, Circuit::GND, Waveform::dc(1.0), 100.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "henries must be positive")]
    fn bad_inductor_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.inductor("L1", a, Circuit::GND, 0.0);
    }

    #[test]
    fn chaining_builds_full_netlist() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        let n2 = c.node("n2");
        c.vsource("V1", n1, Circuit::GND, Waveform::dc(1.0))
            .resistor("R1", n1, n2, 1e3)
            .capacitor("C1", n2, Circuit::GND, 1e-12)
            .mosfet("M1", n2, n1, Circuit::GND, MosParams::nmos_45nm());
        assert_eq!(c.elements().len(), 4);
    }
}
