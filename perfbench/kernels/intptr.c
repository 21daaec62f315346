// @KERNEL: intptr -- uintptr_t round trips (PNVI expose/attach)
// @EXPECT: exit 133
#include <stdint.h>
#define N 180
#define K 7
int main(void) {
    int a[64];
    for (int i = 0; i < 64; i++)
        a[i] = (i * K) % 101;
    int sum = 0;
    for (int i = 0; i < N; i++) {
        uintptr_t u = (uintptr_t)a + (uintptr_t)((i * 13) % 64) * sizeof(int);
        int *p = (int *)u;
        sum = (sum + *p) % 65521;
    }
    return sum % 256;
}
