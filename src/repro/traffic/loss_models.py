"""Packet-loss models.

The paper's evaluation "introduces loss" into a trace using the Gilbert-Elliott
model [9], a two-state Markov chain with a *good* state (low loss) and a *bad*
state (high loss) that produces the bursty loss patterns seen on congested
links.  We implement that model, plus independent (Bernoulli) loss and a
no-loss model, all behind a common :class:`LossModel` interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import RNGStateMixin, make_rng
from repro.util.validation import check_probability

__all__ = [
    "LossModel",
    "NoLossModel",
    "BernoulliLossModel",
    "GilbertElliottLossModel",
]


class LossModel(RNGStateMixin):
    """Decides, packet by packet, whether a packet is dropped.

    ``streamable`` declares that consecutive :meth:`drops`/:meth:`drops_batch`
    calls over a split packet sequence draw the same RNG stream (and reach the
    same states) as one whole-sequence call.  That is true by construction for
    the base per-packet implementation and for every built-in model; a custom
    ``drops_batch`` override whose draw pattern depends on the call size must
    set it ``False`` to be excluded from the streaming engine.
    """

    streamable: bool = True

    def drops(self, packet_index: int) -> bool:
        """Return ``True`` if the ``packet_index``-th packet is dropped."""
        raise NotImplementedError

    def drops_batch(self, first_index: int, count: int) -> np.ndarray:
        """Vectorized :meth:`drops` for ``count`` consecutive packets.

        The base implementation advances the model packet by packet, so any
        subclass is batch-capable with identical results.  Every built-in
        model overrides it with array draws from the same RNG stream:
        memoryless models with one draw, :class:`GilbertElliottLossModel`
        with an exact sojourn-by-sojourn scan.  :meth:`drops` stays the
        oracle an override must reproduce, flags, final state and RNG
        position alike.
        """
        return np.fromiter(
            (self.drops(first_index + offset) for offset in range(count)),
            dtype=bool,
            count=count,
        )

    def expected_loss_rate(self) -> float:
        """Return the model's long-run expected loss rate."""
        raise NotImplementedError

    def reset(self) -> None:
        """Reset internal state (e.g. the Markov chain) to its initial value."""


@dataclass
class NoLossModel(LossModel):
    """A lossless segment."""

    def drops(self, packet_index: int) -> bool:
        return False

    def drops_batch(self, first_index: int, count: int) -> np.ndarray:
        return np.zeros(count, dtype=bool)

    def expected_loss_rate(self) -> float:
        return 0.0


class BernoulliLossModel(LossModel):
    """Independent per-packet loss with a fixed probability."""

    def __init__(self, loss_rate: float, seed: int | np.random.Generator | None = None) -> None:
        self.loss_rate = check_probability("loss_rate", loss_rate)
        self._rng = make_rng(seed)

    def drops(self, packet_index: int) -> bool:
        if self.loss_rate == 0.0:
            return False
        return bool(self._rng.random() < self.loss_rate)

    def drops_batch(self, first_index: int, count: int) -> np.ndarray:
        if self.loss_rate == 0.0:
            return np.zeros(count, dtype=bool)
        # Generator.random draws the same stream batched or one at a time.
        return self._rng.random(count) < self.loss_rate

    def expected_loss_rate(self) -> float:
        return self.loss_rate

    def __repr__(self) -> str:
        return f"BernoulliLossModel(loss_rate={self.loss_rate!r})"


class GilbertElliottLossModel(LossModel):
    """The Gilbert-Elliott two-state Markov loss model.

    The chain alternates between a *good* state ``G`` and a *bad* state ``B``.
    In state ``G`` packets are lost with probability ``loss_good`` (often 0);
    in state ``B`` with probability ``loss_bad``.  Transition probabilities
    ``p`` (G→B) and ``r`` (B→G) control burst length: the mean bad-burst
    length is ``1/r`` packets.

    The convenience constructor :meth:`from_target_rate` chooses ``p`` for a
    desired long-run loss rate given ``r`` and the per-state loss
    probabilities, which is how the benchmarks sweep loss from 0 to 50%.

    :meth:`drops` is the per-packet definition and the oracle.  Each packet
    takes one uniform for the transition, then one for the loss outcome
    when the state it lands in has a nonzero loss probability.
    :meth:`drops_batch` reproduces that stream exactly without a per-packet
    loop: within one sojourn the draw stride is constant (1 or 2), so it
    draws a uniform block, locates each sojourn's end with a binary search
    over the precomputed transition hits of the right stride and parity,
    fills the sojourn's loss flags with one strided comparison, and finally
    rewinds the generator and consumes exactly the draws used.
    """

    #: Packets per uniform block in :meth:`drops_batch` (two draws each at
    #: most), which bounds its transient memory on very large batches.
    _SPAN = 1 << 20

    def __init__(
        self,
        p: float,
        r: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.p = check_probability("p", p)
        self.r = check_probability("r", r)
        self.loss_good = check_probability("loss_good", loss_good)
        self.loss_bad = check_probability("loss_bad", loss_bad)
        self._rng = make_rng(seed)
        self._in_bad_state = False

    @classmethod
    def from_target_rate(
        cls,
        target_rate: float,
        mean_burst_length: float = 8.0,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int | np.random.Generator | None = None,
    ) -> "GilbertElliottLossModel":
        """Build a model whose long-run loss rate equals ``target_rate``.

        ``mean_burst_length`` is the expected number of packets spent in the
        bad state per excursion (``1/r``).  The stationary probability of the
        bad state is ``pi_B = p / (p + r)``; the long-run loss rate is
        ``pi_G * loss_good + pi_B * loss_bad``, which we invert for ``p``.
        """
        check_probability("target_rate", target_rate)
        if mean_burst_length < 1.0:
            raise ValueError(
                f"mean_burst_length must be >= 1 packet, got {mean_burst_length}"
            )
        if target_rate == 0.0:
            return cls(p=0.0, r=1.0, loss_good=0.0, loss_bad=loss_bad, seed=seed)
        if not loss_good <= target_rate <= loss_bad:
            raise ValueError(
                f"target_rate {target_rate} is not achievable with "
                f"loss_good={loss_good}, loss_bad={loss_bad}"
            )
        r = 1.0 / mean_burst_length
        # Solve pi_B from target = (1-pi_B)*loss_good + pi_B*loss_bad.
        pi_bad = (target_rate - loss_good) / (loss_bad - loss_good)
        if pi_bad >= 1.0:
            p = 1.0
        else:
            p = r * pi_bad / (1.0 - pi_bad)
        return cls(p=min(p, 1.0), r=r, loss_good=loss_good, loss_bad=loss_bad, seed=seed)

    def drops(self, packet_index: int) -> bool:
        # Advance the state machine once per packet, then draw the loss
        # outcome from the per-state loss probability.
        if self._in_bad_state:
            if self._rng.random() < self.r:
                self._in_bad_state = False
        else:
            if self._rng.random() < self.p:
                self._in_bad_state = True
        loss_probability = self.loss_bad if self._in_bad_state else self.loss_good
        if loss_probability <= 0.0:
            return False
        return bool(self._rng.random() < loss_probability)

    def drops_batch(self, first_index: int, count: int) -> np.ndarray:
        lost = np.zeros(count, dtype=bool)
        for start in range(0, count, self._SPAN):
            self._drops_span(lost[start : start + self._SPAN])
        return lost

    def _drops_span(self, lost: np.ndarray) -> None:
        """Fill ``lost`` (all ``False`` on entry) exactly as :meth:`drops` would."""
        count = len(lost)
        rng = self._rng
        saved = rng.bit_generator.state
        uniforms = rng.random(2 * count)
        # Per state (False = good, True = bad): the probability of leaving
        # it, its loss probability, and the draw indices that would leave it,
        # split by parity for the stride-2 (lossy) states.
        leave = {False: self.p, True: self.r}
        loss = {False: self.loss_good, True: self.loss_bad}
        hits = {}
        for state in (False, True):
            exits = np.flatnonzero(uniforms < leave[state])
            hits[state] = (
                (exits[exits % 2 == 0], exits[exits % 2 == 1])
                if loss[state] > 0.0
                else (exits, exits)
            )
        bad = self._in_bad_state
        draw = 0
        packet = 0
        while packet < count:
            stride = 2 if loss[bad] > 0.0 else 1
            exits = hits[bad][draw % 2]
            remaining = count - packet
            index = int(np.searchsorted(exits, draw))
            # Packets that stay in the state before the one that leaves it.
            stay = remaining
            if index < len(exits):
                stay = min((int(exits[index]) - draw) // stride, remaining)
            if stride == 2:
                lost[packet : packet + stay] = (
                    uniforms[draw + 1 : draw + 2 * stay : 2] < loss[bad]
                )
            packet += stay
            draw += stay * stride
            if packet == count:
                break
            # The transition packet takes its loss draw in the new state.
            bad = not bad
            draw += 1
            if loss[bad] > 0.0:
                lost[packet] = uniforms[draw] < loss[bad]
                draw += 1
            packet += 1
        self._in_bad_state = bad
        rng.bit_generator.state = saved
        rng.random(draw)

    def expected_loss_rate(self) -> float:
        if self.p == 0.0:
            return self.loss_good
        pi_bad = self.p / (self.p + self.r) if (self.p + self.r) > 0 else 1.0
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad

    def reset(self) -> None:
        self._in_bad_state = False

    def state_snapshot(self) -> dict:
        state = super().state_snapshot()
        state["in_bad_state"] = bool(self._in_bad_state)
        return state

    def state_restore(self, state) -> None:
        super().state_restore(state)
        self._in_bad_state = bool(state["in_bad_state"])

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLossModel(p={self.p!r}, r={self.r!r}, "
            f"loss_good={self.loss_good!r}, loss_bad={self.loss_bad!r})"
        )
