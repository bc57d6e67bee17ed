from hypothesis import settings

# CI keeps no example database between runs, so a property failure there must
# print the blob that replays it (`@reproduce_failure`); select the profile with
# `pytest --hypothesis-profile=ci`.  A test's own @settings still wins.
settings.register_profile("ci", print_blob=True)
