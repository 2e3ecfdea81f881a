//! JSON design manifests: everything a downstream flow needs to
//! instantiate and program the customized accelerator.

use nnmodel::Workload;
use obs::json::{obj, Json};
use spa_arch::{DesignError, SpaDesign};

/// Builds the design manifest for `design` over `workload`.
///
/// The manifest contains the PU pipeline parameters, the full segmentation
/// (items, PU bindings, dataflows), the per-segment fabric switch
/// configuration, and pruning statistics.
///
/// # Errors
///
/// Returns [`DesignError::FabricUnroutable`] if some segment cannot route
/// (such designs are rejected by the engine, but hand-built ones may
/// reach here).
pub fn design_manifest(design: &SpaDesign, workload: &Workload) -> Result<String, DesignError> {
    let net = design.fabric();
    let routings = design.segment_routings(workload)?;
    let pruned = design.pruned_fabric(workload)?;

    let pus: Vec<Json> = design
        .pus
        .iter()
        .enumerate()
        .map(|(i, pu)| {
            obj(vec![
                ("id", Json::from(i)),
                ("rows", Json::from(pu.rows)),
                ("cols", Json::from(pu.cols)),
                ("pes", Json::from(pu.num_pe())),
                ("act_buf_bytes", Json::from(pu.act_buf_bytes)),
                ("wgt_buf_bytes", Json::from(pu.wgt_buf_bytes)),
                ("freq_mhz", Json::from(pu.freq_mhz)),
            ])
        })
        .collect();

    let segments: Vec<Json> = design
        .schedule
        .segments
        .iter()
        .enumerate()
        .map(|(s, seg)| {
            let assignments: Vec<Json> = seg
                .assignments
                .iter()
                .map(|a| {
                    obj(vec![
                        ("item", Json::from(a.item)),
                        ("layer", Json::from(workload.items()[a.item].name.as_str())),
                        ("pu", Json::from(a.pu)),
                    ])
                })
                .collect();
            let dataflows: Vec<Json> = (0..design.n_pus())
                .map(|pu| Json::from(design.dataflows[pu][s].to_string()))
                .collect();
            // Fabric switch settings for this segment: active muxes only.
            let switches: Vec<Json> = net
                .node_ids()
                .flat_map(|id| {
                    let r = &routings[s];
                    (0..2u8).filter_map(move |port| {
                        r.selection(id, port).map(|sel| {
                            obj(vec![
                                ("node", Json::from(id.index())),
                                ("port", Json::from(usize::from(port))),
                                ("select", Json::from(usize::from(sel))),
                            ])
                        })
                    })
                })
                .collect();
            obj(vec![
                ("index", Json::from(s)),
                ("assignments", Json::Arr(assignments)),
                ("dataflows", Json::Arr(dataflows)),
                ("fabric_switches", Json::Arr(switches)),
            ])
        })
        .collect();

    let platform = match design.platform {
        spa_arch::Platform::Asic => "asic",
        spa_arch::Platform::Fpga => "fpga",
    };
    let doc = obj(vec![
        ("design", Json::from(design.name.as_str())),
        ("model", Json::from(workload.name())),
        ("platform", Json::from(platform)),
        ("batch", Json::from(design.batch)),
        ("bandwidth_gbps", Json::from(design.bandwidth_gbps)),
        ("total_pes", Json::from(design.total_pes())),
        ("pus", Json::Arr(pus)),
        ("segments", Json::Arr(segments)),
        (
            "fabric",
            obj(vec![
                ("ports", Json::from(net.ports())),
                ("padded_ports", Json::from(net.padded_ports())),
                ("stages", Json::from(net.stages())),
                ("nodes_total", Json::from(net.num_nodes())),
                ("nodes_kept", Json::from(pruned.nodes())),
                ("muxes_kept", Json::from(pruned.muxes())),
                ("wires_kept", Json::from(pruned.wires())),
            ]),
        ),
    ]);
    Ok(doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoseg::AutoSeg;
    use nnmodel::zoo;
    use spa_arch::HwBudget;

    fn outcome() -> autoseg::AutoSegOutcome {
        AutoSeg::new(HwBudget::nvdla_small())
            .max_pus(3)
            .max_segments(4)
            .run(&zoo::squeezenet1_0())
            .expect("feasible")
    }

    #[test]
    fn manifest_contains_all_sections() {
        let out = outcome();
        let m = design_manifest(&out.design, &out.workload).unwrap();
        for key in [
            "\"design\"",
            "\"pus\"",
            "\"segments\"",
            "\"fabric\"",
            "\"fabric_switches\"",
            "\"dataflows\"",
        ] {
            assert!(m.contains(key), "missing {key}");
        }
    }

    #[test]
    fn manifest_covers_every_item_once() {
        let out = outcome();
        let m = design_manifest(&out.design, &out.workload).unwrap();
        for item in out.workload.items() {
            let needle = format!("\"layer\": \"{}\"", item.name);
            assert_eq!(
                m.matches(&needle).count(),
                1,
                "{} not exactly once",
                item.name
            );
        }
    }

    #[test]
    fn manifest_is_deterministic() {
        let out = outcome();
        let a = design_manifest(&out.design, &out.workload).unwrap();
        let b = design_manifest(&out.design, &out.workload).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn switch_counts_match_routings() {
        let out = outcome();
        let routings = out.design.segment_routings(&out.workload).unwrap();
        let m = design_manifest(&out.design, &out.workload).unwrap();
        let total_switches: usize = routings.iter().map(|r| r.active_muxes()).sum();
        assert_eq!(m.matches("\"select\"").count(), total_switches);
    }
}
