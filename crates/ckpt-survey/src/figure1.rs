//! Figure 1 of the paper: the classification of checkpoint/restart
//! implementations, regenerated as a tree whose every leaf names the
//! module in this workspace that implements it.

/// A node of the taxonomy tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyNode {
    pub label: &'static str,
    /// Example systems from the survey at this node.
    pub(crate) systems: &'static [&'static str],
    /// Workspace path implementing this leaf (empty for interior nodes).
    pub implemented_by: &'static str,
    pub(crate) children: Vec<TaxonomyNode>,
}

impl TaxonomyNode {
    fn leaf(
        label: &'static str,
        systems: &'static [&'static str],
        implemented_by: &'static str,
    ) -> Self {
        TaxonomyNode {
            label,
            systems,
            implemented_by,
            children: Vec::new(),
        }
    }

    fn interior(label: &'static str, children: Vec<TaxonomyNode>) -> Self {
        TaxonomyNode {
            label,
            systems: &[],
            implemented_by: "",
            children,
        }
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// All leaves, depth-first.
    pub fn leaves(&self) -> Vec<&TaxonomyNode> {
        if self.is_leaf() {
            return vec![self];
        }
        self.children.iter().flat_map(|c| c.leaves()).collect()
    }
}

/// Build the Figure 1 taxonomy.
pub fn taxonomy() -> TaxonomyNode {
    TaxonomyNode::interior(
        "Checkpoint/restart implementations",
        vec![
            TaxonomyNode::interior(
                "User-level",
                vec![
                    TaxonomyNode::leaf(
                        "Library calls in source code / pre-compiler",
                        &["libckpt", "libckp", "Thckpt", "Condor", "CLIP", "CCIFT"],
                        "ckpt_core::mechanism::user_level (Trigger::SelfCall)",
                    ),
                    TaxonomyNode::leaf(
                        "Signal handlers (SIGALRM / SIGUSR*)",
                        &["libckpt", "Esky", "Condor"],
                        "ckpt_core::mechanism::user_level (Trigger::Signal/Timer)",
                    ),
                    TaxonomyNode::leaf(
                        "LD_PRELOAD interposition",
                        &["ZAP's shim", "Dynamite"],
                        "ckpt_core::mechanism::user_level (preload = true)",
                    ),
                ],
            ),
            TaxonomyNode::interior(
                "System-level",
                vec![
                    TaxonomyNode::interior(
                        "Operating system",
                        vec![
                            TaxonomyNode::leaf(
                                "System call",
                                &["VMADump", "BPROC", "EPCKPT", "Checkpoint"],
                                "ckpt_core::mechanism::syscall / fork_concurrent",
                            ),
                            TaxonomyNode::leaf(
                                "Kernel-mode signal handler",
                                &["CHPOX", "Software Suspend"],
                                "ckpt_core::mechanism::ksignal / hibernate",
                            ),
                            TaxonomyNode::leaf(
                                "Kernel thread",
                                &["CRAK", "ZAP", "UCLiK", "BLCR", "LAM/MPI", "PsncR/C"],
                                "ckpt_core::mechanism::kthread",
                            ),
                        ],
                    ),
                    TaxonomyNode::interior(
                        "Hardware",
                        vec![
                            TaxonomyNode::leaf(
                                "Directory controller",
                                &["ReVive"],
                                "ckpt_core::mechanism::hardware (HwFlavor::Revive)",
                            ),
                            TaxonomyNode::leaf(
                                "Cache log buffers",
                                &["SafetyNet"],
                                "ckpt_core::mechanism::hardware (HwFlavor::Safetynet)",
                            ),
                        ],
                    ),
                ],
            ),
        ],
    )
}

/// Render the taxonomy as an ASCII tree.
pub fn render(node: &TaxonomyNode) -> String {
    let mut out = String::new();
    fn walk(node: &TaxonomyNode, prefix: &str, last: bool, root: bool, out: &mut String) {
        if root {
            out.push_str(node.label);
            out.push('\n');
        } else {
            out.push_str(prefix);
            out.push_str(if last { "└── " } else { "├── " });
            out.push_str(node.label);
            if !node.systems.is_empty() {
                out.push_str(&format!("  [{}]", node.systems.join(", ")));
            }
            if !node.implemented_by.is_empty() {
                out.push_str(&format!("  → {}", node.implemented_by));
            }
            out.push('\n');
        }
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}{}", if last { "    " } else { "│   " })
        };
        for (i, c) in node.children.iter().enumerate() {
            walk(c, &child_prefix, i + 1 == node.children.len(), false, out);
        }
    }
    walk(node, "", true, true, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_has_the_papers_eight_leaves() {
        let t = taxonomy();
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 8);
    }

    #[test]
    fn every_leaf_is_implemented() {
        for leaf in taxonomy().leaves() {
            assert!(
                !leaf.implemented_by.is_empty(),
                "leaf '{}' names no implementation",
                leaf.label
            );
            assert!(
                !leaf.systems.is_empty(),
                "leaf '{}' cites no surveyed systems",
                leaf.label
            );
        }
    }

    #[test]
    fn top_level_split_is_user_vs_system() {
        let t = taxonomy();
        let labels: Vec<&str> = t.children.iter().map(|c| c.label).collect();
        assert_eq!(labels, vec!["User-level", "System-level"]);
    }

    #[test]
    fn render_is_a_readable_tree() {
        let s = render(&taxonomy());
        assert!(s.contains("├──"));
        assert!(s.contains("└──"));
        assert!(s.contains("Kernel thread"));
        assert!(s.contains("ReVive"));
        assert!(s.contains("ckpt_core::mechanism::kthread"));
    }

    #[test]
    fn every_table1_system_appears_somewhere_in_figure1() {
        // The taxonomy and the feature table cover the same world (user-
        // level examples aside).
        let s = render(&taxonomy());
        for name in [
            "VMADump", "BPROC", "EPCKPT", "CRAK", "UCLiK", "CHPOX", "ZAP", "BLCR", "LAM/MPI",
            "PsncR/C", "Software Suspend", "Checkpoint",
        ] {
            assert!(s.contains(name), "{name} missing from Figure 1");
        }
    }
}
