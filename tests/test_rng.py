import numpy as np
import pytest

from ulhedge import rng

SEED = 20240
LAST = 2**32 - 1

# the first three normals of rng.stream(SEED, purpose, index): the draws every
# simulated world, filter and probe is built from, pinned so that a change of
# key layout or generator shows up as a failure here
GOLDEN = {
    (rng.PATHS, 0): (0.4935016391203545, -0.0066945345378477605, 1.1048118394343707),
    (rng.PATHS, 7): (-0.49123332101202877, -1.3283576658357117, -1.9705700466920784),
    (rng.PATHS, LAST): (-0.7591815996903416, 1.7791303883258116, 1.3051691765620785),
    (rng.DEATH, 0): (0.8210806177227495, -1.2252938689245678, -2.2195761720110503),
    (rng.DEATH, 7): (-0.08834321983490699, 0.828332038522861, -0.7806617570931161),
    (rng.DEATH, LAST): (-0.4732746658783331, -0.9109775179974783, 0.4895038818160761),
    (rng.FILTER, 0): (-0.7240328859763688, -0.4658860422167142, 0.3975990533393698),
    (rng.FILTER, 7): (-0.25120857828567705, 0.08862959024518817, 0.36685186987142043),
    (rng.FILTER, LAST): (-0.04303718083330727, 0.431235529512721, -0.6883719848588598),
    (rng.PROBE, 0): (-0.21839942250075897, -0.21373967795026022, -0.6747005991335887),
    (rng.PROBE, 7): (0.04619422952577627, 1.46876084229531, -0.08238322414475721),
    (rng.PROBE, LAST): (-0.06318727775186615, 0.3296959632683259, 0.45130680001666756),
}
PURPOSES = (rng.PATHS, rng.DEATH, rng.FILTER, rng.PROBE)


class TestStreams:
    @pytest.mark.parametrize("purpose, index", sorted(GOLDEN))
    def test_golden_normals(self, purpose, index):
        got = rng.stream(SEED, purpose, index).standard_normal(3)
        assert got.tolist() == list(GOLDEN[purpose, index])

    @pytest.mark.parametrize("purpose", PURPOSES)
    def test_keyed_streams_draw_what_stream_draws(self, purpose):
        # unsorted, with repeats: each index restarts its own stream
        indices = [7, 3, LAST, 3, 0, 7, 12, 0]
        keyed = [gen.standard_normal(5) for gen in rng.keyed_streams(SEED, purpose, indices)]
        fresh = [rng.stream(SEED, purpose, i).standard_normal(5) for i in indices]
        assert len(keyed) == len(indices)
        for a, b in zip(keyed, fresh):
            assert np.array_equal(a, b)
        # the same after a draw that leaves half a 64-bit word in the buffer
        mixed = [(gen.integers(0, 2**31, dtype=np.uint32), gen.random())
                 for gen in rng.keyed_streams(SEED, purpose, indices)]
        for (u, x), i in zip(mixed, indices):
            gen = rng.stream(SEED, purpose, i)
            assert (u, x) == (gen.integers(0, 2**31, dtype=np.uint32), gen.random())

    @pytest.mark.parametrize("index", [-1, 2**32])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="out of range"):
            rng.stream(SEED, rng.PATHS, index)
        with pytest.raises(ValueError, match="out of range"):
            next(rng.keyed_streams(SEED, rng.PATHS, [index]))
