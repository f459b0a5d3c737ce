//! A two-pass assembler for the guest mini-ISA, plus a few canned programs
//! used by tests, examples, and experiments.

use crate::vm::{encode, sysno, Instr};
use std::collections::BTreeMap;

/// Register aliases.
pub(crate) const SP: u8 = 14;
pub const LR: u8 = 15;

#[derive(Debug, Clone)]
enum Item {
    Instr(Instr),
    /// Branch to a label: patched in pass two (op selects BEQ/BNE/BLTU).
    Branch { op: u8, a: u8, b: u8, label: String },
    /// Jump (JMP/JAL) to a label.
    Jump { link: bool, label: String },
}

/// Errors the assembler can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    DuplicateLabel(String),
    UnknownLabel(String),
    BranchOutOfRange { label: String, distance: i64 },
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label {l}"),
            AsmError::UnknownLabel(l) => write!(f, "unknown label {l}"),
            AsmError::BranchOutOfRange { label, distance } => {
                write!(f, "branch to {label} out of range ({distance} instrs)")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// The assembler. Emit instructions through the builder methods, then call
/// [`Assembler::assemble`].
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    items: Vec<Item>,
    labels: BTreeMap<String, usize>,
}

impl Assembler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        // Duplicate detection deferred to assemble() so the builder chain
        // stays infallible; last definition wins is NOT allowed.
        self.labels
            .entry(name.to_string())
            .and_modify(|v| *v = usize::MAX) // poison duplicates
            .or_insert(self.items.len());
        self
    }

    pub(crate) fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    /// Load an arbitrary 32-bit immediate (expands to LI or LI+LUI).
    pub fn li(&mut self, a: u8, val: u32) -> &mut Self {
        self.push(Instr::Li {
            a,
            imm: (val & 0xFFFF) as u16,
        });
        if val > 0xFFFF {
            self.push(Instr::Lui {
                a,
                imm: (val >> 16) as u16,
            });
        }
        self
    }

    pub fn mov(&mut self, a: u8, b: u8) -> &mut Self {
        self.push(Instr::Mov { a, b })
    }
    pub fn add(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::Add { a, b, c })
    }
    pub fn sub(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::Sub { a, b, c })
    }
    pub fn mul(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::Mul { a, b, c })
    }
    pub fn divu(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::Divu { a, b, c })
    }
    pub fn addi(&mut self, a: u8, b: u8, simm: i8) -> &mut Self {
        self.push(Instr::Addi { a, b, simm })
    }
    pub fn and(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::And { a, b, c })
    }
    pub fn or(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::Or { a, b, c })
    }
    pub fn xor(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::Xor { a, b, c })
    }
    pub fn shl(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::Shl { a, b, c })
    }
    pub fn shr(&mut self, a: u8, b: u8, c: u8) -> &mut Self {
        self.push(Instr::Shr { a, b, c })
    }
    pub fn lw(&mut self, a: u8, b: u8, simm: i8) -> &mut Self {
        self.push(Instr::Lw { a, b, simm })
    }
    pub fn sw(&mut self, a: u8, b: u8, simm: i8) -> &mut Self {
        self.push(Instr::Sw { a, b, simm })
    }
    pub fn lb(&mut self, a: u8, b: u8, simm: i8) -> &mut Self {
        self.push(Instr::Lb { a, b, simm })
    }
    pub fn sb(&mut self, a: u8, b: u8, simm: i8) -> &mut Self {
        self.push(Instr::Sb { a, b, simm })
    }
    pub fn beq(&mut self, a: u8, b: u8, label: &str) -> &mut Self {
        self.items.push(Item::Branch {
            op: 0,
            a,
            b,
            label: label.into(),
        });
        self
    }
    pub fn bne(&mut self, a: u8, b: u8, label: &str) -> &mut Self {
        self.items.push(Item::Branch {
            op: 1,
            a,
            b,
            label: label.into(),
        });
        self
    }
    pub fn bltu(&mut self, a: u8, b: u8, label: &str) -> &mut Self {
        self.items.push(Item::Branch {
            op: 2,
            a,
            b,
            label: label.into(),
        });
        self
    }
    pub fn jmp(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::Jump {
            link: false,
            label: label.into(),
        });
        self
    }
    pub fn jal(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::Jump {
            link: true,
            label: label.into(),
        });
        self
    }
    pub fn jr(&mut self, a: u8) -> &mut Self {
        self.push(Instr::Jr { a })
    }
    pub fn sys(&mut self) -> &mut Self {
        self.push(Instr::Sys)
    }
    pub(crate) fn malloc_enter(&mut self) -> &mut Self {
        self.push(Instr::MallocEnter)
    }
    pub(crate) fn malloc_exit(&mut self) -> &mut Self {
        self.push(Instr::MallocExit)
    }
    pub(crate) fn sret(&mut self) -> &mut Self {
        self.push(Instr::Sret)
    }

    fn push(&mut self, i: Instr) -> &mut Self {
        self.items.push(Item::Instr(i));
        self
    }

    /// Number of instruction words emitted so far.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Resolve labels and produce the text image.
    pub fn assemble(&self) -> Result<Vec<u32>, AsmError> {
        for (name, pos) in &self.labels {
            if *pos == usize::MAX {
                return Err(AsmError::DuplicateLabel(name.clone()));
            }
        }
        let resolve = |label: &str| -> Result<usize, AsmError> {
            self.labels
                .get(label)
                .copied()
                .ok_or_else(|| AsmError::UnknownLabel(label.to_string()))
        };
        let mut out = Vec::with_capacity(self.items.len());
        for (idx, item) in self.items.iter().enumerate() {
            let word = match item {
                Item::Instr(i) => encode(*i),
                Item::Branch { op, a, b, label } => {
                    let target = resolve(label)? as i64;
                    let dist = target - (idx as i64 + 1);
                    if !(-128..=127).contains(&dist) {
                        return Err(AsmError::BranchOutOfRange {
                            label: label.clone(),
                            distance: dist,
                        });
                    }
                    let simm = dist as i8;
                    encode(match op {
                        0 => Instr::Beq { a: *a, b: *b, simm },
                        1 => Instr::Bne { a: *a, b: *b, simm },
                        _ => Instr::Bltu { a: *a, b: *b, simm },
                    })
                }
                Item::Jump { link, label } => {
                    let target = resolve(label)? as u32;
                    encode(if *link {
                        Instr::Jal { imm: target }
                    } else {
                        Instr::Jmp { imm: target }
                    })
                }
            };
            out.push(word);
        }
        Ok(out)
    }
}

/// Canned programs.
pub mod programs {
    use super::*;
    use crate::mem::DATA_BASE;

    /// Count from 0 to `n`, storing the counter at `DATA_BASE` each
    /// iteration, then exit with code 0. The stored counter makes progress
    /// observable in memory (and therefore in checkpoints).
    pub fn counter(n: u32) -> Vec<u32> {
        let mut a = Assembler::new();
        a.li(1, 0); // r1 = i
        a.li(2, n); // r2 = n
        a.li(3, DATA_BASE as u32); // r3 = &counter
        a.label("loop");
        a.sw(1, 3, 0); // store i
        a.addi(1, 1, 1);
        a.bltu(1, 2, "loop");
        a.sw(1, 3, 0); // final value
        a.li(0, sysno::EXIT as u32);
        a.li(1, 0);
        a.sys();
        a.halt();
        a.assemble().expect("counter program assembles")
    }

    /// Sum the integers `1..=n` into `DATA_BASE`, exit with the low 8 bits
    /// of the sum as the exit code. Exercises arithmetic + memory.
    pub fn summer(n: u32) -> Vec<u32> {
        let mut a = Assembler::new();
        a.li(1, 0); // acc
        a.li(2, 1); // i
        a.li(3, n); // n
        a.li(4, DATA_BASE as u32);
        a.li(5, 1);
        a.label("loop");
        a.add(1, 1, 2); // acc += i
        a.sw(1, 4, 0);
        a.add(2, 2, 5); // i += 1
        a.li(6, 0);
        a.bltu(3, 2, "done"); // if n < i: done
        a.jmp("loop");
        a.label("done");
        a.li(0, sysno::EXIT as u32);
        a.li(6, 0xFF);
        a.and(1, 1, 6);
        a.mov(1, 1);
        a.sys();
        a.halt();
        a.assemble().expect("summer assembles")
    }

    /// Install a counting signal handler for the given signal, then loop
    /// forever incrementing `DATA_BASE` and a handler-invocation counter at
    /// `DATA_BASE+8` (incremented from the handler via guest code).
    pub fn signal_loop(sig: u32) -> Vec<u32> {
        let mut a = Assembler::new();
        // sigaction(sig, handler). Handler address is an instruction index
        // converted by the kernel; we pass the label index via JAL-style
        // resolution: place handler at a known label and compute its pc.
        // The kernel's sigaction for VM programs takes an instruction index.
        a.li(1, sig);
        // r2 = handler instruction index — patched below: we know the
        // handler label index only after layout, so emit placeholder and
        // fix: instead, emit the main loop first at fixed indices.
        // Layout: [0..6) prologue, handler at "handler".
        a.li(2, 20); // handler instruction index (see padding below)
        a.li(0, sysno::SIGACTION as u32);
        a.sys();
        a.li(3, DATA_BASE as u32);
        a.li(4, 1);
        a.label("loop");
        a.lw(5, 3, 0);
        a.add(5, 5, 4);
        a.sw(5, 3, 0);
        a.jmp("loop");
        // Pad to instruction index 20.
        while a.len() < 20 {
            a.nop();
        }
        a.label("handler");
        a.li(6, DATA_BASE as u32);
        a.lw(7, 6, 8);
        a.li(8, 1);
        a.add(7, 7, 8);
        a.sw(7, 6, 8);
        a.sret();
        a.assemble().expect("signal_loop assembles")
    }


    /// Open `/tmp/v`, write the 8-byte counter at `DATA_BASE` to it twice
    /// (two write syscalls sharing the fd offset), then exit with the
    /// total number of bytes written. Exercises fd state (offsets) under
    /// checkpointing.
    pub fn file_writer() -> Vec<u32> {
        let mut a = Assembler::new();
        // Store the path "/tmp/v" at DATA_BASE+64.
        let path = b"/tmp/v";
        a.li(3, DATA_BASE as u32 + 64);
        for (i, ch) in path.iter().enumerate() {
            a.li(4, *ch as u32);
            a.sb(4, 3, i as i8);
        }
        // counter value to write lives at DATA_BASE.
        a.li(5, DATA_BASE as u32);
        a.li(6, 12345);
        a.sw(6, 5, 0);
        // open(path, len, flags=write|create)
        a.li(0, sysno::OPEN as u32);
        a.mov(1, 3);
        a.li(2, path.len() as u32);
        a.li(3, 2 | 4);
        a.sys();
        a.mov(7, 0); // fd
        // write(fd, DATA_BASE, 8) twice
        a.li(9, 0); // byte accumulator
        for _ in 0..2 {
            a.li(0, sysno::WRITE as u32);
            a.mov(1, 7);
            a.li(2, DATA_BASE as u32);
            a.li(3, 8);
            a.sys();
            a.add(9, 9, 0);
        }
        // close(fd)
        a.li(0, sysno::CLOSE as u32);
        a.mov(1, 7);
        a.sys();
        // exit(total bytes)
        a.li(0, sysno::EXIT as u32);
        a.mov(1, 9);
        a.sys();
        a.halt();
        a.assemble().expect("file_writer assembles")
    }

    /// Grow the heap with `sbrk`, fill a page with a pattern, sum it back,
    /// store the sum at `DATA_BASE`, and exit 0. Exercises brk state under
    /// checkpointing.
    pub fn heap_user() -> Vec<u32> {
        let mut a = Assembler::new();
        // r1 = old brk = sbrk(4096)
        a.li(0, sysno::SBRK as u32);
        a.li(1, 4096);
        a.sys();
        a.mov(1, 0);
        // write pattern: heap[i] = i for i in 0..64 words
        a.li(2, 0); // i
        a.li(3, 64);
        a.li(6, 8);
        a.mov(7, 1); // cursor
        a.label("fill");
        a.sw(2, 7, 0);
        a.add(7, 7, 6);
        a.addi(2, 2, 1);
        a.bltu(2, 3, "fill");
        // sum back
        a.li(2, 0);
        a.li(4, 0); // acc
        a.mov(7, 1);
        a.label("sum");
        a.lw(5, 7, 0);
        a.add(4, 4, 5);
        a.add(7, 7, 6);
        a.addi(2, 2, 1);
        a.bltu(2, 3, "sum");
        // store sum at DATA_BASE, exit 0
        a.li(8, DATA_BASE as u32);
        a.sw(4, 8, 0);
        a.li(0, sysno::EXIT as u32);
        a.li(1, 0);
        a.sys();
        a.halt();
        a.assemble().expect("heap_user assembles")
    }

    /// A program that mostly sits inside `malloc` (non-reentrant region),
    /// incrementing a counter — used to provoke reentrancy hazards when a
    /// user-level checkpoint handler fires.
    pub fn malloc_heavy() -> Vec<u32> {
        let mut a = Assembler::new();
        a.li(3, DATA_BASE as u32);
        a.li(4, 1);
        a.label("loop");
        a.malloc_enter();
        a.lw(5, 3, 0);
        a.add(5, 5, 4);
        a.sw(5, 3, 0);
        a.malloc_exit();
        a.jmp("loop");
        a.assemble().expect("malloc_heavy assembles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::decode;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Assembler::new();
        a.label("top");
        a.nop();
        a.beq(0, 0, "end"); // forward
        a.bne(0, 1, "top"); // backward
        a.label("end");
        a.halt();
        let text = a.assemble().unwrap();
        assert_eq!(text.len(), 4);
        match decode(text[1]).unwrap() {
            Instr::Beq { simm, .. } => assert_eq!(simm, 1),
            o => panic!("{o:?}"),
        }
        match decode(text[2]).unwrap() {
            Instr::Bne { simm, .. } => assert_eq!(simm, -3),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn unknown_label_errors() {
        let mut a = Assembler::new();
        a.jmp("nowhere");
        assert_eq!(
            a.assemble(),
            Err(AsmError::UnknownLabel("nowhere".into()))
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Assembler::new();
        a.label("x");
        a.nop();
        a.label("x");
        a.halt();
        assert!(matches!(a.assemble(), Err(AsmError::DuplicateLabel(_))));
    }

    #[test]
    fn branch_out_of_range_errors() {
        let mut a = Assembler::new();
        a.beq(0, 0, "far");
        for _ in 0..200 {
            a.nop();
        }
        a.label("far");
        a.halt();
        assert!(matches!(
            a.assemble(),
            Err(AsmError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn li_expands_for_large_immediates() {
        let mut a = Assembler::new();
        a.li(1, 0x1234_5678);
        let text = a.assemble().unwrap();
        assert_eq!(text.len(), 2);
        assert!(matches!(decode(text[0]).unwrap(), Instr::Li { .. }));
        assert!(matches!(decode(text[1]).unwrap(), Instr::Lui { .. }));
    }

    #[test]
    fn jmp_targets_are_absolute_instruction_indices() {
        let mut a = Assembler::new();
        a.nop();
        a.nop();
        a.label("t");
        a.halt();
        let mut b = Assembler::new();
        b.jmp("t2");
        b.nop();
        b.label("t2");
        b.halt();
        let text = b.assemble().unwrap();
        match decode(text[0]).unwrap() {
            Instr::Jmp { imm } => assert_eq!(imm, 2),
            o => panic!("{o:?}"),
        }
        drop(a);
    }

    #[test]
    fn canned_programs_assemble() {
        assert!(!programs::counter(10).is_empty());
        assert!(!programs::summer(10).is_empty());
        assert!(!programs::signal_loop(10).is_empty());
        assert!(!programs::malloc_heavy().is_empty());
        assert!(!programs::file_writer().is_empty());
        assert!(!programs::heap_user().is_empty());
    }
}
