//! The guest mini-ISA: a small register machine whose programs the
//! simulator runs as processes.
//!
//! Why a VM at all? Because checkpoint/restart must be *correct*, not just
//! fast: restoring registers + memory + fds + signal state must let the
//! program continue as if nothing happened. VM programs have genuine
//! register state, a stack, signal handlers, and syscalls, so they exercise
//! every section of the checkpoint image. (Large-memory workloads use the
//! cheaper native apps in [`crate::apps`].)
//!
//! ## ISA summary
//!
//! 16 general-purpose 64-bit registers `r0..r15` (`r14` = stack pointer by
//! convention, `r15` = link register) plus `pc`. Fixed 32-bit instruction
//! words `[op:8][a:8][b:8][c:8]`; `imm16 = b<<8|c`; `simm8 = c as i8`;
//! `imm24 = a<<16|b<<8|c`.
//!
//! Signal delivery pushes the full context (pc + 16 GPRs, 136 bytes) onto
//! the guest stack and jumps to the handler; `SRET` pops it — so a
//! checkpoint taken *inside* a handler still captures everything needed to
//! resume, entirely from guest state.

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instr {
    Nop,
    /// Terminate with exit code `r0`.
    Halt,
    /// `ra = imm16` (zero-extended).
    Li { a: u8, imm: u16 },
    /// `ra = (imm16 << 16) | (ra & 0xFFFF)`.
    Lui { a: u8, imm: u16 },
    Mov { a: u8, b: u8 },
    Add { a: u8, b: u8, c: u8 },
    Sub { a: u8, b: u8, c: u8 },
    Mul { a: u8, b: u8, c: u8 },
    /// Unsigned divide; division by zero is an illegal instruction.
    Divu { a: u8, b: u8, c: u8 },
    Addi { a: u8, b: u8, simm: i8 },
    And { a: u8, b: u8, c: u8 },
    Or { a: u8, b: u8, c: u8 },
    Xor { a: u8, b: u8, c: u8 },
    Shl { a: u8, b: u8, c: u8 },
    Shr { a: u8, b: u8, c: u8 },
    /// `ra = *(u64*)(rb + simm)`.
    Lw { a: u8, b: u8, simm: i8 },
    /// `*(u64*)(rb + simm) = ra`.
    Sw { a: u8, b: u8, simm: i8 },
    /// `ra = *(u8*)(rb + simm)`.
    Lb { a: u8, b: u8, simm: i8 },
    /// `*(u8*)(rb + simm) = ra as u8`.
    Sb { a: u8, b: u8, simm: i8 },
    /// Branch if `ra == rb`, offset in instructions relative to next.
    Beq { a: u8, b: u8, simm: i8 },
    Bne { a: u8, b: u8, simm: i8 },
    /// Branch if `ra < rb` (unsigned).
    Bltu { a: u8, b: u8, simm: i8 },
    /// Absolute jump to instruction index `imm24` within text.
    Jmp { imm: u32 },
    /// Jump and link (`r15 = return pc`).
    Jal { imm: u32 },
    /// Jump to address in `ra`.
    Jr { a: u8 },
    /// Syscall: number in `r0`, args in `r1..r5`, result in `r0`.
    Sys,
    /// Enter a non-reentrant C-library region (models `malloc`).
    MallocEnter,
    /// Leave the non-reentrant region.
    MallocExit,
    /// Return from a signal handler (pop saved context from the stack).
    Sret,
}

/// Instruction opcodes (stable encoding).
mod op {
    pub(crate) const NOP: u8 = 0;
    pub(crate) const HALT: u8 = 1;
    pub(crate) const LI: u8 = 2;
    pub(crate) const LUI: u8 = 3;
    pub(crate) const MOV: u8 = 4;
    pub(crate) const ADD: u8 = 5;
    pub(crate) const SUB: u8 = 6;
    pub(crate) const MUL: u8 = 7;
    pub(crate) const DIVU: u8 = 8;
    pub(crate) const ADDI: u8 = 9;
    pub(crate) const AND: u8 = 10;
    pub(crate) const OR: u8 = 11;
    pub(crate) const XOR: u8 = 12;
    pub(crate) const SHL: u8 = 13;
    pub(crate) const SHR: u8 = 14;
    pub(crate) const LW: u8 = 15;
    pub(crate) const SW: u8 = 16;
    pub(crate) const LB: u8 = 17;
    pub(crate) const SB: u8 = 18;
    pub(crate) const BEQ: u8 = 19;
    pub(crate) const BNE: u8 = 20;
    pub(crate) const BLTU: u8 = 21;
    pub(crate) const JMP: u8 = 22;
    pub(crate) const JAL: u8 = 23;
    pub(crate) const JR: u8 = 24;
    pub(crate) const SYS: u8 = 25;
    pub(crate) const MENTER: u8 = 26;
    pub(crate) const MEXIT: u8 = 27;
    pub(crate) const SRET: u8 = 28;
}

/// Encode an instruction to its 32-bit word.
pub(crate) fn encode(i: Instr) -> u32 {
    fn w(o: u8, a: u8, b: u8, c: u8) -> u32 {
        ((o as u32) << 24) | ((a as u32) << 16) | ((b as u32) << 8) | c as u32
    }
    fn wi16(o: u8, a: u8, imm: u16) -> u32 {
        w(o, a, (imm >> 8) as u8, imm as u8)
    }
    fn wi24(o: u8, imm: u32) -> u32 {
        assert!(imm < (1 << 24), "imm24 overflow");
        ((o as u32) << 24) | imm
    }
    match i {
        Instr::Nop => w(op::NOP, 0, 0, 0),
        Instr::Halt => w(op::HALT, 0, 0, 0),
        Instr::Li { a, imm } => wi16(op::LI, a, imm),
        Instr::Lui { a, imm } => wi16(op::LUI, a, imm),
        Instr::Mov { a, b } => w(op::MOV, a, b, 0),
        Instr::Add { a, b, c } => w(op::ADD, a, b, c),
        Instr::Sub { a, b, c } => w(op::SUB, a, b, c),
        Instr::Mul { a, b, c } => w(op::MUL, a, b, c),
        Instr::Divu { a, b, c } => w(op::DIVU, a, b, c),
        Instr::Addi { a, b, simm } => w(op::ADDI, a, b, simm as u8),
        Instr::And { a, b, c } => w(op::AND, a, b, c),
        Instr::Or { a, b, c } => w(op::OR, a, b, c),
        Instr::Xor { a, b, c } => w(op::XOR, a, b, c),
        Instr::Shl { a, b, c } => w(op::SHL, a, b, c),
        Instr::Shr { a, b, c } => w(op::SHR, a, b, c),
        Instr::Lw { a, b, simm } => w(op::LW, a, b, simm as u8),
        Instr::Sw { a, b, simm } => w(op::SW, a, b, simm as u8),
        Instr::Lb { a, b, simm } => w(op::LB, a, b, simm as u8),
        Instr::Sb { a, b, simm } => w(op::SB, a, b, simm as u8),
        Instr::Beq { a, b, simm } => w(op::BEQ, a, b, simm as u8),
        Instr::Bne { a, b, simm } => w(op::BNE, a, b, simm as u8),
        Instr::Bltu { a, b, simm } => w(op::BLTU, a, b, simm as u8),
        Instr::Jmp { imm } => wi24(op::JMP, imm),
        Instr::Jal { imm } => wi24(op::JAL, imm),
        Instr::Jr { a } => w(op::JR, a, 0, 0),
        Instr::Sys => w(op::SYS, 0, 0, 0),
        Instr::MallocEnter => w(op::MENTER, 0, 0, 0),
        Instr::MallocExit => w(op::MEXIT, 0, 0, 0),
        Instr::Sret => w(op::SRET, 0, 0, 0),
    }
}

/// Decode a 32-bit word.
pub(crate) fn decode(word: u32) -> Result<Instr, String> {
    let o = (word >> 24) as u8;
    let a = (word >> 16) as u8;
    let b = (word >> 8) as u8;
    let c = word as u8;
    let imm16 = ((b as u16) << 8) | c as u16;
    let imm24 = word & 0x00FF_FFFF;
    let simm = c as i8;
    let r = |x: u8| -> Result<u8, String> {
        if x < 16 {
            Ok(x)
        } else {
            Err(format!("register r{x} out of range"))
        }
    };
    Ok(match o {
        op::NOP => Instr::Nop,
        op::HALT => Instr::Halt,
        op::LI => Instr::Li { a: r(a)?, imm: imm16 },
        op::LUI => Instr::Lui { a: r(a)?, imm: imm16 },
        op::MOV => Instr::Mov { a: r(a)?, b: r(b)? },
        op::ADD => Instr::Add { a: r(a)?, b: r(b)?, c: r(c)? },
        op::SUB => Instr::Sub { a: r(a)?, b: r(b)?, c: r(c)? },
        op::MUL => Instr::Mul { a: r(a)?, b: r(b)?, c: r(c)? },
        op::DIVU => Instr::Divu { a: r(a)?, b: r(b)?, c: r(c)? },
        op::ADDI => Instr::Addi { a: r(a)?, b: r(b)?, simm },
        op::AND => Instr::And { a: r(a)?, b: r(b)?, c: r(c)? },
        op::OR => Instr::Or { a: r(a)?, b: r(b)?, c: r(c)? },
        op::XOR => Instr::Xor { a: r(a)?, b: r(b)?, c: r(c)? },
        op::SHL => Instr::Shl { a: r(a)?, b: r(b)?, c: r(c)? },
        op::SHR => Instr::Shr { a: r(a)?, b: r(b)?, c: r(c)? },
        op::LW => Instr::Lw { a: r(a)?, b: r(b)?, simm },
        op::SW => Instr::Sw { a: r(a)?, b: r(b)?, simm },
        op::LB => Instr::Lb { a: r(a)?, b: r(b)?, simm },
        op::SB => Instr::Sb { a: r(a)?, b: r(b)?, simm },
        op::BEQ => Instr::Beq { a: r(a)?, b: r(b)?, simm },
        op::BNE => Instr::Bne { a: r(a)?, b: r(b)?, simm },
        op::BLTU => Instr::Bltu { a: r(a)?, b: r(b)?, simm },
        op::JMP => Instr::Jmp { imm: imm24 },
        op::JAL => Instr::Jal { imm: imm24 },
        op::JR => Instr::Jr { a: r(a)? },
        op::SYS => Instr::Sys,
        op::MENTER => Instr::MallocEnter,
        op::MEXIT => Instr::MallocExit,
        op::SRET => Instr::Sret,
        _ => return Err(format!("bad opcode {o}")),
    })
}

/// Guest syscall numbers used by VM programs (placed in `r0` before `SYS`).
pub mod sysno {
    pub(crate) const EXIT: u64 = 0;
    pub const WRITE: u64 = 1;
    pub(crate) const READ: u64 = 2;
    pub const OPEN: u64 = 3;
    pub(crate) const CLOSE: u64 = 4;
    pub(crate) const SBRK: u64 = 5;
    pub(crate) const GETPID: u64 = 6;
    pub(crate) const KILL: u64 = 7;
    pub(crate) const SIGACTION: u64 = 8;
    pub const ALARM: u64 = 9;
    pub const NANOSLEEP: u64 = 10;
    pub const LSEEK: u64 = 11;
    pub(crate) const DUP: u64 = 12;
    pub(crate) const MMAP: u64 = 13;
    pub(crate) const MUNMAP: u64 = 14;
    pub(crate) const MPROTECT: u64 = 15;
    pub(crate) const SIGPENDING: u64 = 16;
    pub(crate) const YIELD: u64 = 17;
    /// Extension syscalls installed by kernel modules start here: `r0 =
    /// EXT_BASE + slot` (the "new system call" checkpoint mechanisms).
    pub(crate) const EXT_BASE: u64 = 100;
}

/// Size of the signal context frame pushed on delivery (pc + 16 GPRs).
pub(crate) const SIG_FRAME_BYTES: u64 = 8 * 17;

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sample_instrs() -> Vec<Instr> {
        vec![
            Instr::Nop,
            Instr::Halt,
            Instr::Li { a: 3, imm: 0xBEEF },
            Instr::Lui { a: 3, imm: 0xDEAD },
            Instr::Mov { a: 1, b: 2 },
            Instr::Add { a: 1, b: 2, c: 3 },
            Instr::Sub { a: 4, b: 5, c: 6 },
            Instr::Mul { a: 7, b: 8, c: 9 },
            Instr::Divu { a: 1, b: 2, c: 3 },
            Instr::Addi { a: 1, b: 1, simm: -5 },
            Instr::And { a: 0, b: 1, c: 2 },
            Instr::Or { a: 0, b: 1, c: 2 },
            Instr::Xor { a: 0, b: 1, c: 2 },
            Instr::Shl { a: 0, b: 1, c: 2 },
            Instr::Shr { a: 0, b: 1, c: 2 },
            Instr::Lw { a: 1, b: 14, simm: -8 },
            Instr::Sw { a: 1, b: 14, simm: 16 },
            Instr::Lb { a: 1, b: 2, simm: 0 },
            Instr::Sb { a: 1, b: 2, simm: 1 },
            Instr::Beq { a: 1, b: 2, simm: -3 },
            Instr::Bne { a: 1, b: 2, simm: 3 },
            Instr::Bltu { a: 1, b: 2, simm: 100 },
            Instr::Jmp { imm: 1234 },
            Instr::Jal { imm: 77 },
            Instr::Jr { a: 15 },
            Instr::Sys,
            Instr::MallocEnter,
            Instr::MallocExit,
            Instr::Sret,
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for i in all_sample_instrs() {
            let w = encode(i);
            assert_eq!(decode(w).unwrap(), i, "round trip failed for {i:?}");
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        assert!(decode(0xFF00_0000).is_err());
    }

    #[test]
    fn bad_register_rejected() {
        // ADD with register 16.
        let w = (5u32 << 24) | (16 << 16);
        assert!(decode(w).is_err());
    }

    #[test]
    fn negative_simm_survives() {
        let w = encode(Instr::Addi {
            a: 0,
            b: 0,
            simm: -128,
        });
        match decode(w).unwrap() {
            Instr::Addi { simm, .. } => assert_eq!(simm, -128),
            other => panic!("wrong decode: {other:?}"),
        }
    }
}
