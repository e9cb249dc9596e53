//! The capstone integration: from layout geometry and device physics all
//! the way to system-level forward progress, with no published numbers in
//! the loop — every parameter is produced by a lower layer of this
//! repository.

use fefet::mem::macro_model::MacroConfig;
use fefet::nvp::harvester::HarvesterScenario;
use fefet::nvp::processor::{simulate, NvpConfig};
use fefet::nvp::workload::mibench_suite;

#[test]
fn geometry_to_forward_progress() {
    // Macro-level word parameters derived from the λ-rule layouts, the
    // Table 2 metal capacitance, and the device models.
    let fefet = MacroConfig::fefet(64, 32).table().nvm_params(16);
    let feram = MacroConfig::feram(64, 32).table().nvm_params(16);

    let trace = HarvesterScenario::Weak.trace(0.4, 77);
    let bench = mibench_suite()[0];
    // The macro energies are smaller than the paper's published Table 3
    // (we do not model charge-pump or controller overheads), so scale the
    // backup image up to keep the backup/harvest ratio in the same regime.
    let mut cfg_f = NvpConfig::with_nvm(fefet);
    cfg_f.backup_words = 2048;
    cfg_f.storage_capacity = 10e-9;
    let mut cfg_r = NvpConfig::with_nvm(feram);
    cfg_r.backup_words = 2048;
    cfg_r.storage_capacity = 10e-9;

    let run_f = simulate(&cfg_f, &trace, &bench);
    let run_r = simulate(&cfg_r, &trace, &bench);
    assert!(run_f.forward_progress > 0.0);
    assert!(run_r.forward_progress > 0.0);
    let gain = run_f.forward_progress / run_r.forward_progress - 1.0;
    assert!(
        gain > 0.03,
        "self-derived parameters must preserve the FEFET advantage: {:.1} % \
         (FEFET {:.4} vs FERAM {:.4})",
        gain * 100.0,
        run_f.forward_progress,
        run_r.forward_progress
    );
}

#[test]
fn macro_params_qualitatively_match_table3() {
    let f = MacroConfig::fefet(64, 32).table().nvm_params(16);
    let r = MacroConfig::feram(64, 32).table().nvm_params(16);
    // Same orderings as the published table.
    assert!(f.bit_line_voltage < r.bit_line_voltage);
    assert!(f.write_energy < r.write_energy);
    assert!(f.read_energy < r.read_energy);
    assert!(r.read_energy > 0.8 * r.write_energy);
}
