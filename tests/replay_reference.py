"""List-based replay buffer kept as the reference for the ring array in
`lobsim.rl.ReplayBuffer`: a Python list of Experience values that appends
until full, then overwrites its oldest entry, and samples list positions
with the same `rng.choice` call.  `pack` lays experiences out as the
checkpoint's float64 rows."""

import numpy as np

from lobsim.rl import EXPERIENCE_WIDTH


class ListReplayBuffer:
    def __init__(self, max_experience: int):
        self.max_experience = max_experience
        self.storage: list = []
        self.start = 0  # oldest entry once full

    def push(self, experience) -> None:
        if len(self.storage) < self.max_experience:
            self.storage.append(experience)
        else:
            self.storage[self.start] = experience
            self.start = (self.start + 1) % self.max_experience

    def as_list(self) -> list:
        return self.storage[self.start:] + self.storage[:self.start]

    def sample(self, batch_size: int, rng: np.random.Generator) -> list:
        size = min(batch_size, len(self.storage))
        picks = rng.choice(len(self.storage), size=size, replace=False)
        return [self.storage[i] for i in picks]


def pack(experiences) -> np.ndarray:
    packed = np.zeros((len(experiences), EXPERIENCE_WIDTH), dtype="<f8")
    for i, e in enumerate(experiences):
        packed[i, :6] = e.state.to_array()
        packed[i, 6] = e.action
        packed[i, 7] = e.reward
        packed[i, 8:14] = e.next_state.to_array()
        packed[i, 14] = float(e.terminal)
    return packed
