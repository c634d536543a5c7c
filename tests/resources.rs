//! The paper's resource/scalability claims, checked end-to-end through
//! the facade.

use qtaccel::accel::resources::{analyze, resource_report, EngineKind};
use qtaccel::accel::{AccelConfig, QLearningAccel, SarsaAccel};
use qtaccel::envs::{ActionSet, GridWorld};
use qtaccel::fixed::{Q16_16, Q8_8};
use qtaccel::hdl::resource::Device;

#[test]
fn four_dsps_regardless_of_state_space() {
    // Fig. 3 headline + §VI-F: "we only used 4 DSP (4 multipliers)".
    for states in [64usize, 1024, 65_536, 262_144] {
        let r = resource_report(states, 8, 16, EngineKind::QLearning);
        assert_eq!(r.dsp, 4, "|S|={states}");
    }
}

#[test]
fn largest_paper_case_fits_vu13p_at_high_bram() {
    // 262144 states x 8 actions = 2M pairs: "state-action pair size of
    // more than 2 million … 78.12%".
    let cfg = AccelConfig::default();
    let a = analyze(262_144, 8, 16, EngineKind::QLearning, &cfg, 1.0);
    assert!(a.report.fits(&cfg.device), "must fit the xcvu13p");
    assert!(
        a.utilization.bram_pct > 70.0 && a.utilization.bram_pct < 90.0,
        "{}",
        a.utilization.bram_pct
    );
    assert!(a.utilization.ff_pct < 0.1, "registers under 0.1%");
    // Fig. 6's right edge: ~153-156 MS/s.
    assert!(
        (150.0..160.0).contains(&a.throughput_msps),
        "{}",
        a.throughput_msps
    );
}

#[test]
fn a_32bit_datapath_would_not_fit_the_largest_case() {
    // DESIGN.md §4 calibration argument: at 32-bit entries the largest
    // case exceeds the device BRAM, which is why the default is 16-bit.
    let r = resource_report(262_144, 8, 32, EngineKind::QLearning);
    assert!(!r.fits(&Device::XCVU13P));
}

#[test]
fn engines_report_resources_consistently_with_the_model() {
    let g = GridWorld::builder(64, 64)
        .goal(63, 63)
        .actions(ActionSet::Eight)
        .build();
    let ql = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
    let sa = SarsaAccel::<Q8_8>::new(&g, AccelConfig::default(), 0.1);
    let rq = ql.resources();
    let rs = sa.resources();
    assert_eq!(rq.report.dsp, 4);
    assert_eq!(rq.report.bram36, rs.report.bram36);
    assert!(rs.report.ff > rq.report.ff, "SARSA LFSR bank");
    assert!(rs.power_mw > rq.power_mw);
}

#[test]
fn wide_format_quadruples_dsp_cost() {
    let g = GridWorld::builder(8, 8).goal(7, 7).build();
    let narrow = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
    let wide = QLearningAccel::<Q16_16>::new(&g, AccelConfig::default());
    assert_eq!(narrow.resources().report.dsp, 4);
    assert_eq!(wide.resources().report.dsp, 16);
}

#[test]
fn throughput_model_flat_then_degrading() {
    // Fig. 6's shape through the public API.
    let cfg = AccelConfig::default();
    let t = |s: usize| analyze(s, 8, 16, EngineKind::QLearning, &cfg, 1.0).throughput_msps;
    assert_eq!(t(64), 189.0);
    assert_eq!(t(4096), 189.0);
    assert!(t(16384) < 189.0);
    assert!(t(65536) < t(16384));
    assert!(t(262_144) < t(65536));
}

#[test]
fn theoretical_uram_capacity_supports_ten_million_pairs() {
    // §VI-C: "Theoretically, a state-action pair size of 10 million can
    // be supported using the available 360 Mb of on-chip UltraRAM."
    use qtaccel::hdl::bram::uram_blocks_for;
    let pairs = 10_000_000u64;
    // Q + R tables at 16 bits in URAM.
    let blocks = 2 * uram_blocks_for(pairs, 16);
    assert!(
        blocks <= Device::XCVU13P.uram_blocks,
        "10M pairs need {blocks} URAM blocks of {}",
        Device::XCVU13P.uram_blocks
    );
}
