//! Architecture configurations for the study.

use visim_cpu::CpuConfig;

/// The three architecture variations of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Single-issue in-order.
    InOrder1,
    /// 4-way in-order.
    InOrder4,
    /// 4-way out-of-order (the base machine of Tables 2/3).
    Ooo4,
}

impl Arch {
    /// All three, in the paper's bar order.
    pub fn all() -> [Arch; 3] {
        [Arch::InOrder1, Arch::InOrder4, Arch::Ooo4]
    }

    /// The figure label.
    pub fn label(self) -> &'static str {
        match self {
            Arch::InOrder1 => "1-way",
            Arch::InOrder4 => "4-way",
            Arch::Ooo4 => "4-way ooo",
        }
    }

    /// The processor configuration.
    pub fn cpu(self) -> CpuConfig {
        match self {
            Arch::InOrder1 => CpuConfig::inorder_1way(),
            Arch::InOrder4 => CpuConfig::inorder_4way(),
            Arch::Ooo4 => CpuConfig::ooo_4way(),
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_labels_and_configs() {
        assert_eq!(Arch::all().len(), 3);
        assert_eq!(Arch::InOrder1.cpu().issue_width, 1);
        assert_eq!(Arch::InOrder4.cpu().issue_width, 4);
        assert_eq!(Arch::Ooo4.cpu().issue_width, 4);
        assert_eq!(Arch::Ooo4.label(), "4-way ooo");
    }
}
