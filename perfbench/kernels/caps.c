// @KERNEL: caps -- cheri_bounds_set / cheri_perms_and / cheri_address_set
// @EXPECT: exit 188
#include <cheriintrin.h>
#define N 120
#define K 7
int main(void) {
    int buf[64];
    for (int i = 0; i < 64; i++)
        buf[i] = (i * K) % 89;
    int sum = 0;
    for (int i = 0; i < N; i++) {
        int j = (i * 7) % 60;
        int *p = cheri_bounds_set(&buf[j], 4 * sizeof(int));
        p = cheri_perms_and(p, cheri_perms_get(p));
        int *q = cheri_address_set(p, cheri_address_get(p) + 2 * sizeof(int));
        sum = (sum + *q + p[1]) % 65521;
    }
    return sum % 256;
}
