#pragma once
// Nine-valued logic system modeled on IEEE 1164 (std_logic).
//
// The digital kernel uses the full nine-valued algebra so that behavioral
// models can express uninitialized state ('U'), unknowns propagated by fault
// injection ('X'), high impedance ('Z') and weak drives ('W'/'L'/'H') exactly
// as a VHDL description would — the paper's digital flow instruments VHDL
// models, and faithful value semantics keep fault-effect propagation honest.

#include <cstdint>

namespace gfi::digital {

/// One std_logic value.
enum class Logic : std::uint8_t {
    U,    ///< uninitialized
    X,    ///< forcing unknown
    Zero, ///< forcing 0
    One,  ///< forcing 1
    Z,    ///< high impedance
    W,    ///< weak unknown
    L,    ///< weak 0
    H,    ///< weak 1
    DC,   ///< don't care ('-')
};

inline constexpr int kLogicCount = 9;

/// Character representation matching std_logic ('U','X','0','1','Z','W','L','H','-').
char toChar(Logic v) noexcept;

/// Parses a std_logic character; unknown characters map to Logic::X.
Logic logicFromChar(char c) noexcept;

/// IEEE 1164 resolution function for two drivers of the same net.
Logic resolve(Logic a, Logic b) noexcept;

/// True if the value is a forcing or weak 0/1 (i.e. convertible to bool).
constexpr bool isKnown01(Logic v) noexcept
{
    return v == Logic::Zero || v == Logic::One || v == Logic::L || v == Logic::H;
}

/// Converts to bool; 'L' counts as false, 'H' as true. Precondition: isKnown01(v).
constexpr bool toBool(Logic v) noexcept
{
    return v == Logic::One || v == Logic::H;
}

/// Converts a bool to a forcing logic level.
constexpr Logic fromBool(bool b) noexcept
{
    return b ? Logic::One : Logic::Zero;
}

/// IEEE 1164 'and'. Unknown inputs yield X unless dominated by a 0.
Logic logicAnd(Logic a, Logic b) noexcept;

/// IEEE 1164 'or'. Unknown inputs yield X unless dominated by a 1.
Logic logicOr(Logic a, Logic b) noexcept;

/// IEEE 1164 'xor'. Any unknown input yields X.
Logic logicXor(Logic a, Logic b) noexcept;

/// IEEE 1164 'not'. Unknowns stay X; weak levels are normalized.
constexpr Logic logicNot(Logic a) noexcept
{
    switch (a) {
    case Logic::Zero:
    case Logic::L:
        return Logic::One;
    case Logic::One:
    case Logic::H:
        return Logic::Zero;
    case Logic::U:
        return Logic::U;
    default:
        return Logic::X;
    }
}

/// Normalizes weak levels to forcing levels ('L'->'0', 'H'->'1'), everything
/// non-01 to X. This is VHDL's to_x01.
constexpr Logic toX01(Logic a) noexcept
{
    switch (a) {
    case Logic::Zero:
    case Logic::L:
        return Logic::Zero;
    case Logic::One:
    case Logic::H:
        return Logic::One;
    case Logic::U:
        return Logic::U;
    default:
        return Logic::X;
    }
}

/// Flips a known 0/1 value; unknowns become X. Used by SEU bit-flip injection.
constexpr Logic flipped(Logic v) noexcept
{
    if (v == Logic::Zero || v == Logic::L) {
        return Logic::One;
    }
    if (v == Logic::One || v == Logic::H) {
        return Logic::Zero;
    }
    return Logic::X;
}

} // namespace gfi::digital
