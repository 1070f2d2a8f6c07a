# Loaded into the repository's own top-level project through
# CMAKE_PROJECT_INCLUDE (see run.py). Once the root CMakeLists.txt has
# been processed, the benchmark's build file is read in the root scope,
# so the traced harness links the same targets with the same flags and
# build type as the `tracon` binary.
if(NOT PERFBENCH_DIR)
  # Deferred arguments are expanded when the call runs, so the directory
  # is kept in a variable of the root scope.
  set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
  cmake_language(DEFER CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
endif()
