#include "digital/logic.hpp"

namespace gfi::digital {

namespace {

constexpr char kChars[kLogicCount + 1] = "UX01ZWLH-";

// IEEE 1164 resolution table (std_logic_1164 body).
constexpr Logic U = Logic::U;
constexpr Logic X = Logic::X;
constexpr Logic O = Logic::Zero;
constexpr Logic I = Logic::One;
constexpr Logic Z = Logic::Z;
constexpr Logic W = Logic::W;
constexpr Logic L = Logic::L;
constexpr Logic H = Logic::H;
constexpr Logic D = Logic::DC;

constexpr Logic kResolve[kLogicCount][kLogicCount] = {
    //         U  X  0  1  Z  W  L  H  -
    /* U */ {U, U, U, U, U, U, U, U, U},
    /* X */ {U, X, X, X, X, X, X, X, X},
    /* 0 */ {U, X, O, X, O, O, O, O, X},
    /* 1 */ {U, X, X, I, I, I, I, I, X},
    /* Z */ {U, X, O, I, Z, W, L, H, X},
    /* W */ {U, X, O, I, W, W, W, W, X},
    /* L */ {U, X, O, I, L, W, L, W, X},
    /* H */ {U, X, O, I, H, W, W, H, X},
    /* - */ {U, X, X, X, X, X, X, X, X},
};

// IEEE 1164 and/or/xor tables operate on to_x01-normalized values.
constexpr Logic kAnd[4][4] = {
    //        U  X  0  1
    /* U */ {U, U, O, U},
    /* X */ {U, X, O, X},
    /* 0 */ {O, O, O, O},
    /* 1 */ {U, X, O, I},
};

constexpr Logic kOr[4][4] = {
    //        U  X  0  1
    /* U */ {U, U, U, I},
    /* X */ {U, X, X, I},
    /* 0 */ {U, X, O, I},
    /* 1 */ {I, I, I, I},
};

constexpr Logic kXor[4][4] = {
    //        U  X  0  1
    /* U */ {U, U, U, U},
    /* X */ {U, X, X, X},
    /* 0 */ {U, X, O, I},
    /* 1 */ {U, X, I, O},
};

// Index of the to_x01/U-normalized value in {U, X, 0, 1}.
constexpr int ux01Index(Logic v) noexcept
{
    switch (v) {
    case Logic::U:
        return 0;
    case Logic::Zero:
    case Logic::L:
        return 2;
    case Logic::One:
    case Logic::H:
        return 3;
    default:
        return 1;
    }
}

} // namespace

char toChar(Logic v) noexcept
{
    return kChars[static_cast<int>(v)];
}

Logic logicFromChar(char c) noexcept
{
    for (int i = 0; i < kLogicCount; ++i) {
        if (kChars[i] == c) {
            return static_cast<Logic>(i);
        }
    }
    // Accept lowercase as a convenience.
    if (c >= 'a' && c <= 'z') {
        return logicFromChar(static_cast<char>(c - 'a' + 'A'));
    }
    return Logic::X;
}

Logic resolve(Logic a, Logic b) noexcept
{
    return kResolve[static_cast<int>(a)][static_cast<int>(b)];
}

Logic logicAnd(Logic a, Logic b) noexcept
{
    return kAnd[ux01Index(a)][ux01Index(b)];
}

Logic logicOr(Logic a, Logic b) noexcept
{
    return kOr[ux01Index(a)][ux01Index(b)];
}

Logic logicXor(Logic a, Logic b) noexcept
{
    return kXor[ux01Index(a)][ux01Index(b)];
}

} // namespace gfi::digital
