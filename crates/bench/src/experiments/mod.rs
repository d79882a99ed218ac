//! The experiment index (see `DESIGN.md` §4 and `EXPERIMENTS.md`).

/// Declares each experiment module and lists its entry point in [`INDEX`].
macro_rules! index {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every experiment's module name and entry point, in index order.
        pub const INDEX: &[(&str, fn(bool))] = &[$((stringify!($name), |quick| {
            $name::run(quick);
        })),*];
    };
}

index!(
    e01_workflow,
    e02_agreement,
    e03_specialization,
    e04_customization,
    e05_imbalance,
    e06_distribution_shift,
    e07_financial,
    e08_duplication,
    e09_label_noise,
    e10_data_scale,
    e11_multimodal,
    e12_expert_features,
    e13_anonymization,
    e14_artifacts,
    e15_repair_gap,
    e16_training_sft,
    e17_static_vs_dynamic,
    e18_feedback_loop,
    e19_ablations,
    e20_project_scale,
    e21_clone_leakage,
    e22_graph_triage,
    e23_audit_matrix,
);

/// Runs every experiment in index order.
pub fn run_all(quick: bool) {
    for (_, run) in INDEX {
        run(quick);
    }
}

/// The entry point of experiment `id`: its module name (`e01_workflow`)
/// or its number (`e01`).
pub fn find(id: &str) -> Option<fn(bool)> {
    INDEX.iter().find(|(name, _)| *name == id || name.split('_').next() == Some(id)).map(|e| e.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_module_names_or_numbers() {
        assert_eq!(INDEX.len(), 23);
        assert!(find("e01_workflow").is_some());
        assert!(find("e23").is_some());
        for unknown in ["e24", "e01_agreement", "workflow", "all", ""] {
            assert!(find(unknown).is_none(), "{unknown}");
        }
    }
}
